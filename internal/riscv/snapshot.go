package riscv

import "repro/internal/snapshot"

// Save implements snapshot.Snapshotter.
func (c *CPU) Save(w *snapshot.Writer) error { return c.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (c *CPU) Restore(r *snapshot.Reader) error { return c.state(snapshot.Decode(r)) }

// state lists the hart's full architectural and micro-architectural
// state: register file, PC, machine-mode CSRs, cycle counter, halt/WFI
// flags and the retirement counters. The bus and timing model are
// configuration, re-established by whoever rebuilds the SoC. X[0]
// staying hardwired to zero is the one invariant worth checking.
func (c *CPU) state(s *snapshot.State) error {
	s.Begin("riscv.CPU", 1)
	for i := range c.X {
		s.U64(&c.X[i])
	}
	s.U64(&c.PC)
	s.U64(&c.MStatus)
	s.U64(&c.MIE)
	s.U64(&c.MIP)
	s.U64(&c.MTVec)
	s.U64(&c.MEPC)
	s.U64(&c.MCause)
	s.U64(&c.MScratch)
	s.U64(&c.HartID)
	snapshot.Fixed(s, &c.Cycle)
	s.Bool(&c.Halted)
	s.Bool(&c.WaitingForInterrupt)
	s.U64(&c.stats.Instret)
	s.U64(&c.stats.Loads)
	s.U64(&c.stats.Stores)
	s.U64(&c.stats.Branches)
	s.U64(&c.stats.Traps)
	s.Check(c.X[0] == 0, "riscv: x0 = %#x, must be zero", c.X[0])
	if s.Decoding() {
		// The predecode cache is derived state: the checkpoint carries
		// memory contents that may disagree with whatever was cached.
		c.InvalidateDecodeAll()
	}
	return s.Err()
}
