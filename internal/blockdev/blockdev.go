// Package blockdev implements the target server block device controller of
// Section III-A3, which lets simulated nodes boot custom distributions
// with large root filesystems.
//
// The controller contains a frontend that interfaces with the CPU over
// MMIO and one or more trackers that move data between memory and the
// block device. To start a transfer, the CPU programs the request fields
// and reads the allocation register, which dispatches the request to a
// tracker and returns the tracker's ID. When the transfer completes, the
// tracker posts its ID to the completion queue and the frontend raises an
// interrupt; the CPU matches the completed ID against the one it received
// at allocation.
//
// The device is organised in 512-byte sectors; transfers are multiples of
// 512 bytes and must be sector-aligned on the device (memory addresses
// need not be aligned).
package blockdev

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/nic"
)

// SectorBytes is the device sector size.
const SectorBytes = 512

// MMIO register offsets.
const (
	RegAddr      = 0x00 // W: memory address of the data buffer
	RegSector    = 0x08 // W: starting device sector
	RegNSectors  = 0x10 // W: transfer length in sectors
	RegWrite     = 0x18 // W: 1 = memory -> device, 0 = device -> memory
	RegAlloc     = 0x20 // R: dispatch request; returns tracker ID or NoTracker
	RegComplete  = 0x28 // R: pop a completed tracker ID, or NoTracker
	RegNComplete = 0x30 // R: number of queued completions
	RegIntrEn    = 0x38 // W: enable the completion interrupt
)

// NoTracker is returned by RegAlloc when no tracker is free and by
// RegComplete when no completion is pending.
const NoTracker = 0xff

// Config parameterises the controller.
type Config struct {
	// Trackers is the number of concurrent transfer engines.
	Trackers int
	// CapacityBytes is the device size.
	CapacityBytes uint64
	// SectorLatency is the device-side cycles per sector moved.
	SectorLatency clock.Cycles
	// FixedLatency is the per-request overhead (command issue, seek).
	FixedLatency clock.Cycles
}

// DefaultConfig models a fast SSD-class device: ~4 GiB, ~25 us fixed
// latency at 3.2 GHz, ~0.4 GB/s streaming.
func DefaultConfig() Config {
	return Config{
		Trackers:      4,
		CapacityBytes: 4 << 30,
		SectorLatency: 4000,  // 512 B / (0.4 GB/s) at 3.2 GHz
		FixedLatency:  80000, // 25 us
	}
}

// Stats counts controller activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	SectorsMoved uint64
	AllocFailed  uint64
}

type tracker struct {
	busy   bool
	doneAt clock.Cycles
	id     int
}

// Device is the block device controller plus its backing store.
type Device struct {
	cfg      Config
	mem      nic.Memory // reuse the DMA port abstraction into SoC memory
	trackers []tracker
	// request staging registers
	addr, sector, nsectors, write uint64
	completions                   []int
	intrEn                        bool
	stats                         Stats

	disk map[uint64][]byte // sparse sector store
}

// New builds a controller over the given DMA port.
func New(cfg Config, mem nic.Memory) *Device {
	if cfg.Trackers == 0 {
		cfg = DefaultConfig()
	}
	d := &Device{cfg: cfg, mem: mem, disk: make(map[uint64][]byte)}
	d.trackers = make([]tracker, cfg.Trackers)
	for i := range d.trackers {
		d.trackers[i].id = i
	}
	return d
}

// NumSectors returns the device capacity in sectors.
func (d *Device) NumSectors() uint64 { return d.cfg.CapacityBytes / SectorBytes }

// WriteSector initialises device contents directly (used to provision the
// "root filesystem" before boot, the way the manager stages disk images).
func (d *Device) WriteSector(sector uint64, data []byte) {
	if len(data) > SectorBytes {
		panic(fmt.Sprintf("blockdev: sector write of %d bytes", len(data)))
	}
	buf := make([]byte, SectorBytes)
	copy(buf, data)
	d.disk[sector] = buf
}

// MMIOStore services a CPU write at the given register offset.
func (d *Device) MMIOStore(offset, v uint64) {
	switch offset {
	case RegAddr:
		d.addr = v
	case RegSector:
		d.sector = v
	case RegNSectors:
		d.nsectors = v
	case RegWrite:
		d.write = v
	case RegIntrEn:
		d.intrEn = v != 0
	}
}

// MMIOLoad services a CPU read at the given register offset. now is the
// CPU's current cycle, needed because RegAlloc starts a timed transfer.
func (d *Device) MMIOLoad(now clock.Cycles, offset uint64) uint64 {
	switch offset {
	case RegAlloc:
		return uint64(d.alloc(now))
	case RegComplete:
		if len(d.completions) == 0 {
			return NoTracker
		}
		id := d.completions[0]
		d.completions = d.completions[1:]
		return uint64(id)
	case RegNComplete:
		return uint64(len(d.completions))
	default:
		return 0
	}
}

// alloc dispatches the staged request to a free tracker.
func (d *Device) alloc(now clock.Cycles) int {
	if d.sector+d.nsectors > d.NumSectors() {
		d.stats.AllocFailed++
		return NoTracker
	}
	for i := range d.trackers {
		tr := &d.trackers[i]
		if tr.busy {
			continue
		}
		d.startTransfer(now, tr)
		return tr.id
	}
	d.stats.AllocFailed++
	return NoTracker
}

func (d *Device) startTransfer(now clock.Cycles, tr *tracker) {
	n := d.nsectors
	dev := d.cfg.FixedLatency + clock.Cycles(n)*d.cfg.SectorLatency
	buf := make([]byte, n*SectorBytes)
	var memDone clock.Cycles
	if d.write != 0 {
		// memory -> device
		memDone = d.mem.ReadDMA(now, d.addr, buf)
		for s := uint64(0); s < n; s++ {
			sec := make([]byte, SectorBytes)
			copy(sec, buf[s*SectorBytes:])
			d.disk[d.sector+s] = sec
		}
		d.stats.Writes++
	} else {
		// device -> memory
		for s := uint64(0); s < n; s++ {
			if sec, ok := d.disk[d.sector+s]; ok {
				copy(buf[s*SectorBytes:], sec)
			}
		}
		memDone = d.mem.WriteDMA(now, d.addr, buf)
		d.stats.Reads++
	}
	d.stats.SectorsMoved += n
	done := now + dev
	if memDone > done {
		done = memDone
	}
	tr.busy = true
	tr.doneAt = done
}

// Tick retires finished trackers, posting completions. The SoC calls it
// once per target cycle.
func (d *Device) Tick(now clock.Cycles) {
	for i := range d.trackers {
		tr := &d.trackers[i]
		if tr.busy && now >= tr.doneAt {
			tr.busy = false
			d.completions = append(d.completions, tr.id)
		}
	}
}

// IntrPending reports whether the completion interrupt is asserted.
func (d *Device) IntrPending() bool {
	return d.intrEn && len(d.completions) > 0
}

// Quiescent reports whether Tick is a pure no-op: no tracker is busy, so
// no completion can retire at any future cycle. (Queued completions are
// static state — they only change under MMIO, which cannot happen while
// the cores are idle — so they do not block quiescence; IntrPending is
// checked separately by the scheduler.)
func (d *Device) Quiescent() bool {
	for i := range d.trackers {
		if d.trackers[i].busy {
			return false
		}
	}
	return true
}
