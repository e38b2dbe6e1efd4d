package token

import (
	"testing"
	"testing/quick"
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

func TestDenseRoundTrip(t *testing.T) {
	// Property: b.Dense() holds b.At(i) at every offset i, for any
	// occupancy pattern.
	check := func(pattern uint16) bool {
		b := NewBatch(16)
		for i := 0; i < 16; i++ {
			if pattern&(1<<i) != 0 {
				b.Put(i, Token{Data: uint64(i) * 7, Valid: true, Last: i%3 == 0})
			}
		}
		dense := b.Dense()
		if len(dense) != b.N {
			return false
		}
		for i := 0; i < 16; i++ {
			if dense[i] != b.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestBatchCopyIsDeep(t *testing.T) {
	b := NewBatch(8)
	b.Put(2, Token{Data: 42, Valid: true})
	c := b.Copy()
	c.Slots[0].Tok.Data = 99
	if b.At(2).Data != 42 {
		t.Error("Copy shares slot storage with original")
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
