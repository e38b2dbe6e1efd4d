package switchmodel

import "repro/internal/clock"

// Probes and helpers that only this package's tests use.

// Cycle returns the switch's target cycle as of the most recently
// completed TickBatch. Like Stats, it is safe concurrently with a
// parallel run.
func (s *Switch) Cycle() clock.Cycles { return clock.Cycles(s.pubCycle.Load()) }
