package obs

// Probes and helpers that only this package's tests use.

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }
