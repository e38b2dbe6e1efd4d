package soc

import "repro/internal/snapshot"

// maxConsoleBytes bounds the restored UART backlog.
const maxConsoleBytes = 1 << 26

// Save implements snapshot.Snapshotter.
func (s *SoC) Save(w *snapshot.Writer) error { return s.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter. The blade must have been
// rebuilt from the same Config (same core count, same registered
// devices); structural mismatches are reported, not papered over.
func (s *SoC) Restore(r *snapshot.Reader) error { return s.state(snapshot.Decode(r)) }

// state lists the whole blade: blade-level state (cycle, halt latch,
// console), then each subsystem in a fixed order — DRAM, L2, every core
// (hart, L1I, L1D, busy time), NIC, block device, and finally any
// registered accelerator devices in ascending MMIO-base order. Devices
// must implement snapshot.Snapshotter; a blade carrying one that does not
// cannot be checkpointed, and the error says which.
func (s *SoC) state(st *snapshot.State) error {
	st.Begin("soc.SoC", 1)
	snapshot.Fixed(st, &s.cycle)
	st.Bool(&s.halted)
	st.Bytes(&s.console, maxConsoleBytes)
	st.Sub(s.dram)
	st.Sub(s.l2)
	st.Shape("cores", len(s.cores))
	for _, c := range s.cores {
		st.Sub(c.cpu)
		st.Sub(c.bus.l1i)
		st.Sub(c.bus.l1d)
		snapshot.Fixed(st, &c.busyUntil)
	}
	st.Sub(s.nic)
	st.Sub(s.bdev)
	st.Shape("devices", len(s.devices))
	for _, sl := range s.devices {
		dev, ok := sl.dev.(snapshot.Snapshotter)
		if !st.Check(ok, "soc: device at %#x is not snapshottable", sl.base) {
			break
		}
		base := sl.base
		st.U64(&base)
		st.Check(base == sl.base, "soc: checkpoint device at %#x, blade has %#x", base, sl.base)
		st.Sub(dev)
	}
	return st.Err()
}
