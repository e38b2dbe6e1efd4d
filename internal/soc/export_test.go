package soc

import (
	"repro/internal/blockdev"
	"repro/internal/nic"
)

// Probes that only this package's tests read.

// NIC exposes the blade's NIC.
func (s *SoC) NIC() *nic.NIC { return s.nic }

// BlockDev exposes the blade's block device.
func (s *SoC) BlockDev() *blockdev.Device { return s.bdev }

// Console returns everything written to the UART.
func (s *SoC) Console() string { return string(s.console) }

// SkippedCycles reports how many target cycles compute-only windows have
// advanced with no hart running (observability only; excluded from
// snapshots).
func (s *SoC) SkippedCycles() uint64 { return s.skipped }

// PartialIdleCycles reports how many WFI hart-cycles the compute-only
// window parked arithmetically instead of burning one at a time
// (observability only; excluded from snapshots).
func (s *SoC) PartialIdleCycles() uint64 { return s.partIdle }

// SuperblockInstret sums instructions retired through superblock dispatch
// across all harts (observability only).
func (s *SoC) SuperblockInstret() uint64 {
	var total uint64
	for _, c := range s.cores {
		total += c.cpu.SuperblockInstret()
	}
	return total
}
