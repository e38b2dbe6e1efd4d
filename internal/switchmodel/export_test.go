package switchmodel

import "repro/internal/clock"

// Probes and helpers that only this package's tests use.

// Cycle returns the switch's target cycle as of the most recently
// completed TickBatch. Like Stats, read it between runs.
func (s *Switch) Cycle() clock.Cycles { return s.cycle }
