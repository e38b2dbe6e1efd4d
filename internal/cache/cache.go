// Package cache implements set-associative cache timing models for the
// simulated server blades (Table I: 16 KiB L1I, 16 KiB L1D, 256 KiB shared
// L2).
//
// The caches are timing models with functional passthrough: data lives in
// the DRAM model's backing store, and the caches track tags, LRU state and
// dirtiness to decide how many cycles an access costs and which DRAM
// traffic it generates. This mirrors the role cache RTL plays on the FPGA:
// what the evaluation observes is latency and memory traffic, not the bits
// in the data array.
package cache

import (
	"fmt"

	"repro/internal/clock"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the cache in diagnostics ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the cache line size.
	LineBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access latency in core cycles on a hit.
	HitLatency clock.Cycles
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set access counter value; higher = more recent.
	lru uint64
}

// MemLevel is the next level the cache refills from and writes back to. A
// cache's parent is either another cache or the DRAM model (adapted via a
// small shim in package soc).
type MemLevel interface {
	// AccessLine models a line-granularity transfer starting no earlier
	// than now, returning the completion cycle.
	AccessLine(now clock.Cycles, addr uint64, write bool) clock.Cycles
}

// Cache is one level of set-associative write-back, write-allocate cache.
type Cache struct {
	cfg    Config
	sets   [][]line
	nsets  uint64
	parent MemLevel
	stats  Stats
	tick   uint64 // global LRU counter
	// gen counts residency changes (refills, flushes, restores). Callers
	// holding a (set, way) handle from Lookup compare generations to know
	// whether the handle can still name the same line. Derived state only:
	// excluded from snapshots.
	gen uint64
}

// New builds a cache over the given parent level.
func New(cfg Config, parent MemLevel) *Cache {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	nlines := cfg.SizeBytes / cfg.LineBytes
	if nlines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, nlines, cfg.Ways))
	}
	nsets := nlines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a power of two", cfg.Name, nsets))
	}
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, nsets: uint64(nsets), parent: parent}
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr / uint64(c.cfg.LineBytes)
	return lineAddr % c.nsets, lineAddr / c.nsets
}

// AccessLine implements MemLevel so caches can stack (L1 -> L2 -> DRAM).
// It models a whole-line access.
func (c *Cache) AccessLine(now clock.Cycles, addr uint64, write bool) clock.Cycles {
	return c.Access(now, addr, write)
}

// Access models a load (write=false) or store (write=true) touching the
// line containing addr, returning its completion cycle. Stores are
// write-back write-allocate: they hit in the cache and mark the line
// dirty; dirty victims are written back to the parent on eviction.
func (c *Cache) Access(now clock.Cycles, addr uint64, write bool) clock.Cycles {
	set, tag := c.index(addr)
	ways := c.sets[set]
	c.tick++

	// Hit?
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return now + c.cfg.HitLatency
		}
	}

	// Miss: prefer an invalid way, otherwise evict the LRU way.
	c.stats.Misses++
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
	}

	t := now + c.cfg.HitLatency // tag check before going to the parent
	if ways[victim].valid && ways[victim].dirty {
		// Write back the victim line first.
		c.stats.Writebacks++
		victimAddr := (ways[victim].tag*c.nsets + set) * uint64(c.cfg.LineBytes)
		t = c.parent.AccessLine(t, victimAddr, true)
	}
	// Refill.
	lineAddr := addr / uint64(c.cfg.LineBytes) * uint64(c.cfg.LineBytes)
	t = c.parent.AccessLine(t, lineAddr, false)

	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	c.gen++
	return t
}

// Gen returns the residency generation counter. It advances whenever a
// line is filled, flushed or the cache is restored from a checkpoint, so
// any (set, way) handle obtained from Lookup is valid only while Gen is
// unchanged.
func (c *Cache) Gen() uint64 { return c.gen }

// Lookup reports whether the line holding addr is resident, and if so at
// which (set, way). It performs no state mutation — callers that want hit
// accounting must follow up with Touch.
func (c *Cache) Lookup(addr uint64) (set, way int, ok bool) {
	s, tag := c.index(addr)
	for i, w := range c.sets[s] {
		if w.valid && w.tag == tag {
			return int(s), i, true
		}
	}
	return 0, 0, false
}

// Touch replays the hit path for a known-resident (set, way) handle:
// identical LRU, dirty-bit and counter mutations to Access on a hit, and
// the identical completion cycle. The handle must come from Lookup (or a
// remembered Access hit) under the current Gen; Touch does not re-check
// the tag.
func (c *Cache) Touch(now clock.Cycles, set, way int, write bool) clock.Cycles {
	c.tick++
	ln := &c.sets[set][way]
	ln.lru = c.tick
	if write {
		ln.dirty = true
	}
	c.stats.Hits++
	return now + c.cfg.HitLatency
}

// TouchN replays k consecutive hit-path touches of one known-resident
// (set, way) handle in O(1): the global LRU counter advances by k, the
// line's lru lands on the final counter value and the hit counter gains k
// — bit-identical to k sequential Touch calls, whose intermediate states
// nothing can observe between them. Same validity contract as Touch.
func (c *Cache) TouchN(set, way, k int) {
	c.tick += uint64(k)
	c.sets[set][way].lru = c.tick
	c.stats.Hits += uint64(k)
}

// Table I geometry helpers.

// DefaultL1I returns the 16 KiB L1 instruction cache configuration.
func DefaultL1I() Config {
	return Config{Name: "L1I", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 1}
}

// DefaultL1D returns the 16 KiB L1 data cache configuration.
func DefaultL1D() Config {
	return Config{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 2}
}

// DefaultL2 returns the 256 KiB shared L2 configuration.
func DefaultL2() Config {
	return Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, HitLatency: 12}
}
