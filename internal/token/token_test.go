package token

import (
	"slices"
	"testing"
)

func TestEmptyTokenString(t *testing.T) {
	if got := Empty.String(); got != "·" {
		t.Errorf("Empty.String() = %q, want %q", got, "·")
	}
	v := Token{Data: 0xdead, Valid: true}
	if got := v.String(); got == "·" {
		t.Errorf("valid token rendered as empty: %q", got)
	}
	l := Token{Data: 1, Valid: true, Last: true}
	if got := l.String(); got == v.String() {
		t.Errorf("last flag not visible in String: %q", got)
	}
}

func TestBatchPutAt(t *testing.T) {
	b := NewBatch(16)
	if !b.IsEmpty() {
		t.Fatal("new batch should be empty")
	}
	b.Put(3, Token{Data: 30, Valid: true})
	b.Put(4, Empty) // empty tokens are not stored
	b.Put(9, Token{Data: 90, Valid: true, Last: true})

	if got := b.Occupied(); got != 2 {
		t.Fatalf("Occupied() = %d, want 2", got)
	}
	if got := b.At(3); got.Data != 30 || !got.Valid {
		t.Errorf("At(3) = %v", got)
	}
	if got := b.At(9); got.Data != 90 || !got.Last {
		t.Errorf("At(9) = %v", got)
	}
	for _, i := range []int{0, 1, 2, 4, 5, 8, 10, 15} {
		if got := b.At(i); got.Valid {
			t.Errorf("At(%d) should be empty, got %v", i, got)
		}
	}
}

func TestBatchPutPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative offset", func() { NewBatch(4).Put(-1, Token{Valid: true}) }},
		{"offset at N", func() { NewBatch(4).Put(4, Token{Valid: true}) }},
		{"out of order", func() {
			b := NewBatch(8)
			b.Put(5, Token{Valid: true})
			b.Put(5, Token{Valid: true})
		}},
		{"decreasing", func() {
			b := NewBatch(8)
			b.Put(5, Token{Valid: true})
			b.Put(2, Token{Valid: true})
		}},
		{"zero batch", func() { NewBatch(0) }},
		{"run past N", func() { NewBatch(4).PutRun(2, []uint64{1, 2, 3}, true) }},
		{"run negative offset", func() { NewBatch(4).PutRun(-1, []uint64{1}, false) }},
		{"run overlaps previous slot", func() {
			b := NewBatch(8)
			b.PutRun(2, []uint64{1, 2}, false)
			b.PutRun(3, []uint64{3}, true)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestBatchReset(t *testing.T) {
	b := NewBatch(8)
	b.Put(1, Token{Data: 1, Valid: true})
	b.Reset(4)
	if b.N != 4 || !b.IsEmpty() {
		t.Errorf("after Reset: N=%d occupied=%d", b.N, b.Occupied())
	}
	b.Put(0, Token{Data: 2, Valid: true}) // re-put at low offset must work after reset
	if got := b.At(0).Data; got != 2 {
		t.Errorf("At(0).Data = %d, want 2", got)
	}
}

func TestFilter(t *testing.T) {
	b := NewBatch(10)
	for i := 0; i < 10; i += 2 {
		b.Put(i, Token{Data: uint64(i), Valid: true})
	}
	b.Filter(func(offset int, tok Token) bool { return offset != 4 })
	if b.Occupied() != 4 {
		t.Fatalf("Filter kept %d slots, want 4", b.Occupied())
	}
	if b.At(4).Valid {
		t.Error("filtered slot still present")
	}
	for _, off := range []int{0, 2, 6, 8} {
		if !b.At(off).Valid || b.At(off).Data != uint64(off) {
			t.Errorf("slot %d perturbed by Filter: %v", off, b.At(off))
		}
	}
	// Ordering invariant must survive so further Puts work.
	b2 := NewBatch(4)
	b2.Filter(func(int, Token) bool { return false })
	b2.Put(1, Token{Data: 7, Valid: true})
}

func TestMutate(t *testing.T) {
	b := NewBatch(8)
	b.Put(1, Token{Data: 0x10, Valid: true})
	b.Put(3, Token{Data: 0x30, Valid: true, Last: true})
	b.Put(5, Token{Data: 0x50, Valid: true})
	b.Mutate(func(offset int, tok Token) Token {
		switch offset {
		case 1:
			tok.Data ^= 0xff // corrupt
		case 3:
			tok.Valid = false // drop
		}
		return tok
	})
	if got := b.At(1).Data; got != 0x10^0xff {
		t.Errorf("corrupted token data = %#x, want %#x", got, 0x10^0xff)
	}
	if b.At(3).Valid {
		t.Error("dropped token still present")
	}
	if got := b.At(5).Data; got != 0x50 {
		t.Errorf("untouched token perturbed: %#x", got)
	}
	if b.Occupied() != 2 {
		t.Errorf("Occupied = %d, want 2", b.Occupied())
	}
}

// tok is a valid token with the given data and Last flag.
func tok(data uint64, last bool) Token { return Token{Data: data, Valid: true, Last: last} }

func TestPutRun(t *testing.T) {
	type run struct {
		offset int
		data   []uint64
		last   bool
	}
	cases := []struct {
		name string
		n    int
		runs []run
		want []Slot
	}{
		{"empty run", 8, []run{{3, []uint64{1}, true}, {4, nil, true}}, []Slot{{3, tok(1, true)}}},
		{"run ending at N-1", 8, []run{{5, []uint64{1, 2, 3}, true}},
			[]Slot{{5, tok(1, false)}, {6, tok(2, false)}, {7, tok(3, true)}}},
		{"last false", 8, []run{{0, []uint64{1, 2}, false}}, []Slot{{0, tok(1, false)}, {1, tok(2, false)}}},
		{"adjacent runs", 8, []run{{1, []uint64{1}, false}, {2, []uint64{2, 3}, true}},
			[]Slot{{1, tok(1, false)}, {2, tok(2, false)}, {3, tok(3, true)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBatch(tc.n)
			for _, r := range tc.runs {
				b.PutRun(r.offset, r.data, r.last)
			}
			if !slices.Equal(b.Slots, tc.want) {
				t.Errorf("Slots = %v, want %v", b.Slots, tc.want)
			}
		})
	}
}

func TestAppendFrame(t *testing.T) {
	cases := []struct {
		name  string
		dst   []uint64
		slots []Slot
		want  []uint64
		wantK int
	}{
		{"empty slots", []uint64{7}, nil, []uint64{7}, 0},
		{"stops at first Last", nil, []Slot{{0, tok(1, false)}, {1, tok(2, true)}, {2, tok(3, true)}},
			[]uint64{1, 2}, 2},
		{"no Last in slots", nil, []Slot{{0, tok(1, false)}, {4, tok(2, false)}}, []uint64{1, 2}, 2},
		// The second half of a frame whose first half came in the
		// previous batch: dst already holds it.
		{"frame split across two calls", []uint64{1, 2}, []Slot{{0, tok(3, true)}, {1, tok(9, false)}},
			[]uint64{1, 2, 3}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, k := AppendFrame(tc.dst, tc.slots)
			if k != tc.wantK || !slices.Equal(got, tc.want) {
				t.Errorf("AppendFrame = %v, %d; want %v, %d", got, k, tc.want, tc.wantK)
			}
		})
	}
}

// FuzzBatchRuns checks the run API against its per-token definition:
// runs written with PutRun give the same Slots as the equivalent Put
// loop, and AppendFrame reassembles any slot sequence, cut into batches
// anywhere, into the frames a per-slot loop would.
func FuzzBatchRuns(f *testing.F) {
	f.Add([]byte{16, 0, 7, 2, 4, 0, 0})
	f.Add([]byte{0, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 1 + int(ops[0])
		runs, loop := NewBatch(n), NewBatch(n)
		off, data := 0, uint64(0)
		for rest := ops[1:]; len(rest) >= 2 && off <= n; rest = rest[2:] {
			off += int(rest[0] % 8)
			k := max(0, min(int(rest[1]>>1)%16, n-off))
			last := rest[1]&1 != 0
			flits := make([]uint64, k)
			for j := range flits {
				data++
				flits[j] = data
			}
			runs.PutRun(off, flits, last)
			for j, d := range flits {
				loop.Put(off+j, tok(d, last && j == k-1))
			}
			off += k
		}
		if !slices.Equal(runs.Slots, loop.Slots) {
			t.Fatalf("PutRun slots %v, Put loop slots %v", runs.Slots, loop.Slots)
		}

		// One slot per input byte: its value as data, its low bit as Last.
		slots := make([]Slot, len(ops))
		for i, b := range ops {
			slots[i] = Slot{Offset: int32(i), Tok: tok(uint64(b), b&1 != 0)}
		}
		var want [][]uint64
		var cur []uint64
		for _, s := range slots {
			cur = append(cur, s.Tok.Data)
			if s.Tok.Last {
				want, cur = append(want, cur), nil
			}
		}
		wantTail := cur

		var got [][]uint64
		cur = nil
		chunk := 1 + int(ops[0]%7)
		for lo := 0; lo < len(slots); lo += chunk {
			batch := slots[lo:min(lo+chunk, len(slots))]
			for len(batch) > 0 {
				var k int
				cur, k = AppendFrame(cur, batch)
				if k == 0 {
					t.Fatal("AppendFrame consumed no slot of a non-empty batch")
				}
				if batch[k-1].Tok.Last {
					got, cur = append(got, cur), nil
				}
				batch = batch[k:]
			}
		}
		if len(got) != len(want) || !slices.Equal(cur, wantTail) {
			t.Fatalf("AppendFrame frames %v + tail %v, per-slot loop %v + tail %v", got, cur, want, wantTail)
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: AppendFrame %v, per-slot loop %v", i, got[i], want[i])
			}
		}
	})
}
