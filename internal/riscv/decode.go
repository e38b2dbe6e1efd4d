package riscv

import "repro/internal/clock"

// FetchFaster is an optional Bus extension for the predecoded-instruction
// fast path. FetchFast must be cycle-exact with Fetch at the same address
// and the same point in time: identical latency and identical side effects
// on the memory hierarchy (cache LRU/stats, everything a checkpoint
// captures) — only the functional word read is skipped, because the caller
// already holds the word in its decode cache. Returning ok=false means the
// bus could not prove the fast path safe and MUST have performed no side
// effects; the caller then falls back to a full Fetch.
type FetchFaster interface {
	FetchFast(addr uint64) (latency clock.Cycles, ok bool)
}

// FetchSpanner is an optional Bus extension over FetchFaster for batched
// fetch replay. FetchSpan replays k consecutive instruction fetches at
// addr, addr+4, ..., addr+4(k-1) — all within one instruction-cache line —
// with side effects identical to k sequential FetchFast calls and a
// per-fetch stall of zero (the hit path's invariant latency). Returning
// false means the span was not provably safe and no side effects were
// performed; the caller falls back to per-instruction fetches. ILineBytes
// reports the instruction-line size so callers can chunk spans by line.
type FetchSpanner interface {
	FetchSpan(addr uint64, k int) bool
	ILineBytes() uint64
}

// The decode cache is a direct-mapped array of pre-cracked instructions,
// sized to hold as many instructions as the default 16 KiB L1I holds
// (4096 four-byte words). It is purely derived state: never snapshotted,
// rebuilt lazily after any invalidation, so it cannot affect StateHash.
const (
	decBits = 12
	decSize = 1 << decBits
	decMask = decSize - 1
)

type decEntry struct {
	pc    uint64 // full-PC tag; hit requires pc match, so aliases are safe
	imm   uint64 // pre-cracked immediate (crackImm)
	word  uint32
	valid bool
	op    uint32
	rd    uint32
	rs1   uint32
	rs2   uint32
	f3    uint32
	f7    uint32
}

// SetDecodeCache enables or disables the predecoded instruction cache
// (default on). Disabling also drops the cached entries, so re-enabling
// starts cold.
func (c *CPU) SetDecodeCache(on bool) {
	c.decodeOn = on
	if !on {
		c.dec = nil
	}
}

// InvalidateDecode drops any predecoded entries covering [addr, addr+n).
// Because an entry for pc P lives only at index (P>>2)&decMask, clearing
// the index of every word in the range is exact and complete; entries for
// aliasing PCs that happen to share an index are dropped conservatively.
func (c *CPU) InvalidateDecode(addr uint64, n int) {
	if c.dec == nil {
		return
	}
	c.killBlocksRange(addr, n)
	if n > decSize*4 {
		c.InvalidateDecodeAll()
		return
	}
	end := addr + uint64(n)
	for w := addr &^ 3; w < end; w += 4 {
		c.dec[(w>>2)&decMask].valid = false
	}
}

// InvalidateDecodeAll drops every predecoded entry (fence.i, snapshot
// restore, bulk DMA) and every superblock chained over them.
func (c *CPU) InvalidateDecodeAll() {
	c.killBlocksAll()
	for i := range c.dec {
		c.dec[i].valid = false
	}
}

// fetchPredecode fetches the instruction at PC, consulting the decode
// cache first. It returns the instruction word, the fetch latency, the
// decode-cache entry for this PC (nil when the cache is off) and whether
// the entry's pre-cracked fields are valid for this word.
//
// Cycle-exactness: on a predecode hit with a FetchFaster bus, FetchFast
// replays the timing-model side effects of a fetch without the functional
// read. On any other bus the full Fetch still runs and the cached fields
// are reused only when the fetched word matches the cached one — which
// makes the fallback safe under self-modifying code by construction.
func (c *CPU) fetchPredecode() (word uint32, lat clock.Cycles, ent *decEntry, hit bool) {
	if !c.decodeOn {
		word, lat = c.bus.Fetch(c.PC)
		return word, lat, nil, false
	}
	if c.dec == nil {
		c.dec = make([]decEntry, decSize)
	}
	ent = &c.dec[(c.PC>>2)&decMask]
	if ent.valid && ent.pc == c.PC {
		if c.fastBus != nil {
			if l, ok := c.fastBus.FetchFast(c.PC); ok {
				return ent.word, l, ent, true
			}
		}
		word, lat = c.bus.Fetch(c.PC)
		return word, lat, ent, word == ent.word
	}
	word, lat = c.bus.Fetch(c.PC)
	return word, lat, ent, false
}
