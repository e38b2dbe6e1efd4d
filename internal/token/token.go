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
// A Batch stores its occupied cycles as runs of consecutive flits over one
// flat data slice. Datapaths that move whole packets (switch egress, a
// NIC's TX queue) write each packet segment with one Batch.PutRun, and
// receivers reassemble a frame by appending each run's slice of Data, so
// the host pays per run of flits rather than per flit. Batch.Put is for
// endpoints that decide one cycle at a time; At, Each, Filter and Mutate
// keep the per-cycle view.
package token

import "fmt"

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

// Run is a stretch of occupied cycles inside a Batch: Len flits at the
// consecutive offsets Off, Off+1, ..., whose payloads are the next Len
// words of Batch.Data. Only the final flit of a run can be Last.
type Run struct {
	Off  int32
	Len  int32
	Last bool
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
	// Runs holds the occupied cycles in strictly increasing offset order.
	// The layout is canonical: a run ends only at a gap or after a Last
	// flit, so one frame segment is one run and equal batches have equal
	// Runs and Data.
	Runs []Run
	// Data holds the payloads of every run, run after run.
	Data []uint64
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
	b.Runs = b.Runs[:0]
	b.Data = b.Data[:0]
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
	if tok.Valid {
		b.PutRun(offset, []uint64{tok.Data}, tok.Last)
	}
}

// PutRun records len(data) valid tokens at the consecutive offsets
// offset, offset+1, ... and marks the final one Last when last is set. It
// is len(data) Put calls in one: the run must fit in the window and start
// after the previous flit, and PutRun panics like Put otherwise, but it
// writes at most one run header and one copy of data. The previous run
// grows instead when it ends right before offset and is not Last. An
// empty run records nothing.
func (b *Batch) PutRun(offset int, data []uint64, last bool) {
	k := len(data)
	if k == 0 {
		return
	}
	if offset < 0 || offset > b.N-k {
		panic(fmt.Sprintf("token: run [%d,%d) out of batch range [0,%d)", offset, offset+k, b.N))
	}
	if n := len(b.Runs); n > 0 {
		r := &b.Runs[n-1]
		end := int(r.Off + r.Len)
		if offset < end {
			panic(fmt.Sprintf("token: out-of-order write at offset %d after %d", offset, end-1))
		}
		if offset == end && !r.Last {
			r.Len += int32(k)
			r.Last = last
			b.Data = append(b.Data, data...)
			return
		}
	}
	b.Runs = append(b.Runs, Run{Off: int32(offset), Len: int32(k), Last: last})
	b.Data = append(b.Data, data...)
}

// At returns the token at the given cycle offset, which is the empty token
// for unoccupied cycles. It scans the runs; hot paths walk Runs and Data
// directly.
func (b *Batch) At(offset int) Token {
	pos := 0
	for _, r := range b.Runs {
		if d := offset - int(r.Off); d >= 0 && d < int(r.Len) {
			return Token{Data: b.Data[pos+d], Valid: true, Last: r.Last && d == int(r.Len)-1}
		}
		pos += int(r.Len)
	}
	return Empty
}

// Each calls fn on every valid token in offset order.
func (b *Batch) Each(fn func(offset int, tok Token)) {
	pos := 0
	for _, r := range b.Runs {
		for j := range int(r.Len) {
			fn(int(r.Off)+j, Token{Data: b.Data[pos], Valid: true, Last: r.Last && j == int(r.Len)-1})
			pos++
		}
	}
}

// Occupied reports the number of valid tokens in the batch.
func (b *Batch) Occupied() int { return len(b.Data) }

// IsEmpty reports whether the batch carries no valid tokens.
func (b *Batch) IsEmpty() bool { return len(b.Data) == 0 }

// Filter removes, in place, every token for which keep returns false. It
// preserves offset ordering and is the primitive fault injectors use to
// model link flaps and packet loss without reallocating the batch data.
func (b *Batch) Filter(keep func(offset int, tok Token) bool) {
	b.Mutate(func(offset int, tok Token) Token {
		tok.Valid = keep(offset, tok)
		return tok
	})
}

// Mutate applies fn to every valid token in place. A token returned with
// Valid cleared is removed from the batch entirely (a dropped cycle), so fn
// can both corrupt and discard; a removed flit splits its run. Offsets
// cannot be changed — per-cycle ordering is an invariant of the batch.
func (b *Batch) Mutate(fn func(offset int, tok Token) Token) {
	// The kept tokens are rewritten through Put: their data over the
	// prefix of Data already read, their runs past the old ones (a split
	// can add runs), moved to the front afterwards.
	n := len(b.Runs)
	kept := Batch{N: b.N, Runs: b.Runs[n:], Data: b.Data[:0]}
	b.Each(func(offset int, tok Token) { kept.Put(offset, fn(offset, tok)) })
	b.Runs = append(b.Runs[:0], kept.Runs...)
	b.Data = kept.Data
}
