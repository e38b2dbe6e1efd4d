package cache

import "repro/internal/clock"

// Probes and helpers that only this package's tests use.

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether the line holding addr is resident (for tests
// and invariant checks).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Flush writes back every dirty line and invalidates the cache, returning
// the completion cycle. Used by DMA-coherency-free devices in tests.
func (c *Cache) Flush(now clock.Cycles) clock.Cycles {
	t := now
	for set := range c.sets {
		for i := range c.sets[set] {
			ln := &c.sets[set][i]
			if ln.valid && ln.dirty {
				addr := (ln.tag*c.nsets + uint64(set)) * uint64(c.cfg.LineBytes)
				t = c.parent.AccessLine(t, addr, true)
				c.stats.Writebacks++
			}
			*ln = line{}
		}
	}
	c.gen++
	return t
}
