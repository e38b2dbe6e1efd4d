package dram

// Probes and helpers that only this package's tests use.

// Stats returns a snapshot of the counters.
func (m *Model) Stats() Stats { return m.stats }
