// Package token defines the fundamental unit of data exchanged between
// decoupled simulation endpoints in a FireSim-style distributed simulation.
//
// On a simulated link, one token represents one target cycle's worth of
// data. A link of latency N cycles always has N tokens in flight: if an
// endpoint issues a token at target cycle M, the token is consumed at the
// other end at cycle M+N. Endpoints may not advance past a target cycle
// until they hold an input token for it, which is what makes the distributed
// simulation cycle-exact and deterministic.
//
// A token carries a 64-bit payload (one flit of a 200 Gbit/s link clocked at
// 3.2 GHz), a Valid flag marking cycles on which the endpoint actually
// transmitted, and a Last flag marking the final flit of a packet so that
// the transport layer can delimit packets without understanding the
// link-layer protocol.
//
// Datapaths that move whole packets (switch egress, a NIC's TX queue) write
// each packet segment with one Batch.PutRun and reassemble received frames
// with AppendFrame, so the host pays per run of flits rather than per flit.
// Batch.Put is for endpoints that decide one cycle at a time.
package token

import (
	"fmt"
	"slices"
)

// Token is one target cycle's worth of link data.
type Token struct {
	// Data is the flit payload; meaningful only when Valid is set.
	Data uint64
	// Valid marks a cycle on which real data was transmitted. A zero Token
	// is an empty token: a cycle on which the endpoint sent nothing.
	Valid bool
	// Last marks the final flit of a packet. It lets transports and switch
	// ingress logic delimit packets without parsing the link-layer protocol.
	Last bool
}

// Empty is the canonical empty token, representing a cycle with no traffic.
var Empty = Token{}

// String implements fmt.Stringer for debugging output.
func (t Token) String() string {
	if !t.Valid {
		return "·"
	}
	if t.Last {
		return fmt.Sprintf("[%016x L]", t.Data)
	}
	return fmt.Sprintf("[%016x  ]", t.Data)
}

// Slot pairs a token with its cycle offset inside a Batch.
type Slot struct {
	// Offset is the cycle index within the batch, in [0, Batch.N).
	Offset int32
	// Tok is the token occupying that cycle.
	Tok Token
}

// Batch is a link-latency-sized group of tokens covering N consecutive
// target cycles. Moving whole batches (rather than individual tokens)
// amortises host transport latency exactly as described in the paper:
// tokens can be batched up to the target link latency without compromising
// cycle accuracy.
//
// Only occupied (valid) cycles are stored explicitly; all other cycles in
// the window are empty tokens. This keeps an idle link's batch O(1) to
// produce, move, and consume while remaining semantically identical to a
// dense array of N tokens.
type Batch struct {
	// N is the number of target cycles this batch covers.
	N int
	// Slots holds the occupied cycles in strictly increasing Offset order.
	Slots []Slot
}

// NewBatch returns an empty batch covering n cycles.
func NewBatch(n int) *Batch {
	if n <= 0 {
		panic(fmt.Sprintf("token: batch size must be positive, got %d", n))
	}
	return &Batch{N: n}
}

// Reset clears the batch in place so it can be reused for a new window of n
// cycles. Reusing batches avoids per-round allocation on hot simulation
// paths.
func (b *Batch) Reset(n int) {
	b.N = n
	b.Slots = b.Slots[:0]
}

// Put records tok at cycle offset within the batch. Offsets must be added
// in strictly increasing order; Put panics otherwise, since out-of-order
// writes would corrupt the per-cycle ordering invariants that the switch
// models rely on. Empty tokens are not stored. Put suits endpoints that
// emit one token per decided cycle; a run of flits on consecutive cycles
// (a packet being transmitted) goes in with one PutRun instead.
func (b *Batch) Put(offset int, tok Token) {
	if offset < 0 || offset >= b.N {
		panic(fmt.Sprintf("token: offset %d out of batch range [0,%d)", offset, b.N))
	}
	if !tok.Valid {
		return
	}
	if n := len(b.Slots); n > 0 && int(b.Slots[n-1].Offset) >= offset {
		panic(fmt.Sprintf("token: out-of-order Put at offset %d after %d", offset, b.Slots[n-1].Offset))
	}
	b.Slots = append(b.Slots, Slot{Offset: int32(offset), Tok: tok})
}

// PutRun records len(data) valid tokens at the consecutive offsets
// offset, offset+1, ... and marks the final one Last when last is set. It
// is len(data) Put calls in one: the run must fit in the window and start
// after the previous slot, and PutRun panics like Put otherwise, but it
// checks once per run and grows Slots once. An empty run records nothing.
func (b *Batch) PutRun(offset int, data []uint64, last bool) {
	k := len(data)
	if k == 0 {
		return
	}
	if offset < 0 || offset > b.N-k {
		panic(fmt.Sprintf("token: run [%d,%d) out of batch range [0,%d)", offset, offset+k, b.N))
	}
	if n := len(b.Slots); n > 0 && int(b.Slots[n-1].Offset) >= offset {
		panic(fmt.Sprintf("token: out-of-order PutRun at offset %d after %d", offset, b.Slots[n-1].Offset))
	}
	base := len(b.Slots)
	b.Slots = slices.Grow(b.Slots, k)[:base+k]
	run := b.Slots[base:]
	for j, d := range data {
		run[j] = Slot{Offset: int32(offset + j), Tok: Token{Data: d, Valid: true}}
	}
	run[k-1].Tok.Last = last
}

// AppendFrame appends to dst the data of slots up to and including the
// first Last token (all of slots if none is Last) and returns the extended
// slice and the number of slots consumed. Receivers call it once per frame:
// a frame is complete when the last consumed slot is Last, and otherwise
// continues in the next batch. dst grows by the frame's length, not the
// window's.
func AppendFrame(dst []uint64, slots []Slot) ([]uint64, int) {
	k := len(slots)
	for i := range slots {
		if slots[i].Tok.Last {
			k = i + 1
			break
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, k)[:base+k]
	for i, s := range slots[:k] {
		dst[base+i] = s.Tok.Data
	}
	return dst, k
}

// At returns the token at the given cycle offset, which is the empty token
// for unoccupied cycles. It runs a binary search; prefer iterating Slots
// directly on hot paths.
func (b *Batch) At(offset int) Token {
	lo, hi := 0, len(b.Slots)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(b.Slots[mid].Offset) == offset:
			return b.Slots[mid].Tok
		case int(b.Slots[mid].Offset) < offset:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return Empty
}

// Occupied reports the number of valid tokens in the batch.
func (b *Batch) Occupied() int { return len(b.Slots) }

// IsEmpty reports whether the batch carries no valid tokens.
func (b *Batch) IsEmpty() bool { return len(b.Slots) == 0 }

// Filter removes, in place, every token for which keep returns false. It
// preserves slot ordering and is the primitive fault injectors use to model
// link flaps and packet loss without reallocating the batch.
func (b *Batch) Filter(keep func(offset int, tok Token) bool) {
	kept := b.Slots[:0]
	for _, s := range b.Slots {
		if keep(int(s.Offset), s.Tok) {
			kept = append(kept, s)
		}
	}
	b.Slots = kept
}

// Mutate applies fn to every valid token in place. A token returned with
// Valid cleared is removed from the batch entirely (a dropped cycle), so fn
// can both corrupt and discard. Offsets cannot be changed — per-cycle
// ordering is an invariant of the batch.
func (b *Batch) Mutate(fn func(offset int, tok Token) Token) {
	kept := b.Slots[:0]
	for _, s := range b.Slots {
		t := fn(int(s.Offset), s.Tok)
		if !t.Valid {
			continue
		}
		s.Tok = t
		kept = append(kept, s)
	}
	b.Slots = kept
}
