package blockdev

import "repro/internal/clock"

// Section VIII: "we are planning to replace our functional block device
// model with a timing-accurate model with pluggable timing mechanisms for
// various storage technologies (Disks, SSDs, 3D XPoint)". This file
// provides those pluggable timing configurations; the tracker machinery
// in Device already applies them.

// Technology names a storage timing preset.
type Technology string

// Storage technologies with distinct latency/bandwidth profiles.
const (
	TechDisk   Technology = "disk"
	TechSSD    Technology = "ssd"
	TechXPoint Technology = "3dxpoint"
)

// configFor returns a Device configuration for the given technology at a
// 3.2 GHz target clock:
//
//	disk:      ~6 ms seek+rotate, ~200 MB/s streaming
//	ssd:       ~60 us access, ~2 GB/s streaming
//	3d xpoint: ~8 us access, ~2.5 GB/s streaming
func configFor(tech Technology) Config {
	c := clock.New(clock.DefaultTargetClock)
	// sectorCycles converts a streaming bandwidth (bytes/s) into core
	// cycles per 512 B sector at 3.2 GHz.
	sectorCycles := func(bytesPerSec float64) clock.Cycles {
		return clock.Cycles(float64(SectorBytes) / bytesPerSec * float64(clock.DefaultTargetClock))
	}
	switch tech {
	case TechDisk:
		return Config{
			Trackers:      4,
			CapacityBytes: 4 << 30,
			FixedLatency:  c.CyclesInMicros(6000),
			SectorLatency: sectorCycles(200e6),
		}
	case TechSSD:
		return Config{
			Trackers:      4,
			CapacityBytes: 4 << 30,
			FixedLatency:  c.CyclesInMicros(60),
			SectorLatency: sectorCycles(2e9),
		}
	case TechXPoint:
		return Config{
			Trackers:      4,
			CapacityBytes: 4 << 30,
			FixedLatency:  c.CyclesInMicros(8),
			SectorLatency: sectorCycles(2.5e9),
		}
	default:
		return DefaultConfig()
	}
}

// accessLatency returns the modeled latency of an n-sector transfer for
// the configuration, for capacity-planning comparisons without running a
// simulation.
func (c Config) accessLatency(nSectors uint64) clock.Cycles {
	return c.FixedLatency + clock.Cycles(nSectors)*c.SectorLatency
}
