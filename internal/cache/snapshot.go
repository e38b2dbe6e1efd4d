package cache

import "repro/internal/snapshot"

// Save implements snapshot.Snapshotter.
func (c *Cache) Save(w *snapshot.Writer) error { return c.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (c *Cache) Restore(r *snapshot.Reader) error { return c.state(snapshot.Decode(r)) }

// state lists the cache's tag/LRU/dirty state densely, plus the LRU tick
// and counters. Geometry (set count, ways) is recorded so a restore into
// a differently-shaped cache fails loudly instead of silently
// reinterpreting lines.
func (c *Cache) state(s *snapshot.State) error {
	s.Begin("cache.Cache", 1)
	s.Shape("sets", len(c.sets))
	s.Shape("ways", c.cfg.Ways)
	s.U64(&c.tick)
	s.U64(&c.stats.Hits)
	s.U64(&c.stats.Misses)
	s.U64(&c.stats.Writebacks)
	for _, ways := range c.sets {
		for i := range ways {
			s.U64(&ways[i].tag)
			s.Bool(&ways[i].valid)
			s.Bool(&ways[i].dirty)
			s.U64(&ways[i].lru)
		}
	}
	if s.Decoding() {
		c.gen++ // residency may have changed wholesale; invalidate Lookup handles
	}
	return s.Err()
}
