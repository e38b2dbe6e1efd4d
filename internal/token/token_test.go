package token

import (
	"bytes"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/snapshot"
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
		name     string
		n        int
		runs     []run
		wantRuns []Run
		wantData []uint64
	}{
		{"empty run", 8, []run{{3, []uint64{1}, true}, {4, nil, true}}, []Run{{3, 1, true}}, []uint64{1}},
		{"run ending at N-1", 8, []run{{5, []uint64{1, 2, 3}, true}}, []Run{{5, 3, true}}, []uint64{1, 2, 3}},
		{"last false", 8, []run{{0, []uint64{1, 2}, false}}, []Run{{0, 2, false}}, []uint64{1, 2}},
		// A contiguous run continues a non-Last one: one frame segment,
		// one run.
		{"adjacent runs", 8, []run{{1, []uint64{1}, false}, {2, []uint64{2, 3}, true}}, []Run{{1, 3, true}}, []uint64{1, 2, 3}},
		{"adjacent after Last", 8, []run{{1, []uint64{1}, true}, {2, []uint64{2}, true}}, []Run{{1, 1, true}, {2, 1, true}}, []uint64{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBatch(tc.n)
			for _, r := range tc.runs {
				b.PutRun(r.offset, r.data, r.last)
			}
			if !slices.Equal(b.Runs, tc.wantRuns) || !slices.Equal(b.Data, tc.wantData) {
				t.Errorf("Runs %v Data %v, want %v %v", b.Runs, b.Data, tc.wantRuns, tc.wantData)
			}
		})
	}
}

// frames reassembles frames from batches the way the switch and NIC
// ingress paths do: each run's data is appended to the open frame, and a
// Last run closes it. It returns the complete frames and the open tail.
func frames(batches ...*Batch) (done [][]uint64, cur []uint64) {
	for _, b := range batches {
		pos := 0
		for _, r := range b.Runs {
			cur = append(cur, b.Data[pos:pos+int(r.Len)]...)
			pos += int(r.Len)
			if r.Last {
				done, cur = append(done, cur), nil
			}
		}
	}
	return done, cur
}

// TestFrameRuns pins what the ingress paths rely on: a frame's flits in
// one batch are the runs up to and including the first Last one.
func TestFrameRuns(t *testing.T) {
	stops := NewBatch(8)
	stops.Put(0, tok(1, false))
	stops.Put(1, tok(2, true))
	stops.Put(2, tok(3, true))
	noLast := NewBatch(8)
	noLast.Put(0, tok(1, false))
	noLast.Put(4, tok(2, false))
	// The second half of a frame whose first half came in the previous
	// batch.
	first, second := NewBatch(4), NewBatch(4)
	first.PutRun(2, []uint64{1, 2}, false)
	second.Put(0, tok(3, true))
	second.Put(1, tok(9, false))
	cases := []struct {
		name     string
		batches  []*Batch
		wantDone [][]uint64
		wantCur  []uint64
	}{
		{"empty slots", []*Batch{NewBatch(4)}, nil, nil},
		{"stops at first Last", []*Batch{stops}, [][]uint64{{1, 2}, {3}}, nil},
		{"no Last in slots", []*Batch{noLast}, nil, []uint64{1, 2}},
		{"frame split across two calls", []*Batch{first, second}, [][]uint64{{1, 2, 3}}, []uint64{9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done, cur := frames(tc.batches...)
			if !slices.EqualFunc(done, tc.wantDone, slices.Equal) || !slices.Equal(cur, tc.wantCur) {
				t.Errorf("frames %v + tail %v, want %v + %v", done, cur, tc.wantDone, tc.wantCur)
			}
		})
	}
}

// goldenBatches are the batches whose checkpoint bytes TestBatchSaveGolden
// pins (the transport codec pins their wire bytes the same way).
func goldenBatches() []*Batch {
	flits := func(base uint64, k int) []uint64 {
		out := make([]uint64, k)
		for j := range out {
			out[j] = base + uint64(j)*0x0101010101010101
		}
		return out
	}
	sparse := NewBatch(64)
	sparse.Put(3, tok(0xa1, false))
	sparse.Put(17, tok(0xb2b2b2b2b2b2b2b2, true))
	sparse.Put(40, tok(0xc3, false))
	sparse.Put(63, tok(0xd4d4000000000000, true))
	frame := NewBatch(64)
	frame.PutRun(7, flits(0xf00d000000000000, 25), true)
	backToBack := NewBatch(64)
	backToBack.PutRun(2, flits(0x1000000000000001, 25), true)
	backToBack.PutRun(27, flits(0x2000000000000002, 25), true)
	singles := NewBatch(16)
	for i := range 3 {
		singles.PutRun(4+i, []uint64{0xe0 + uint64(i)}, true)
	}
	cut := NewBatch(32)
	cut.PutRun(20, flits(0x3000000000000003, 12), false)
	return []*Batch{NewBatch(512), sparse, frame, backToBack, singles, cut}
}

// TestBatchSaveGolden pins Batch.Save bytes — the token section of every
// checkpoint — for an idle batch, a sparse one, one 25-flit frame, two
// frames back to back, three one-flit frames on consecutive cycles and a
// frame cut by the window end, and restores each to an equal batch.
func TestBatchSaveGolden(t *testing.T) {
	want := []string{
		"46534e5001000000000000000000000000000000000000000000000000000000a50174038004009607187a5a",
		"46534e5001000000000000000000000000000000000000000000000000000000a501742a400403a1000000000000000111b2b2b2b2b2b2b2b20328c3" +
			"00000000000000013f000000000000d4d403ea45a1b65a",
		"46534e5001000000000000000000000000000000000000000000000000000000a50174fc014019070000000000000df001080101010101010ef10109" +
			"0202020202020ff2010a03030303030310f3010b04040404040411f4010c05050505050512f5010d06060606060613f6010e07070707070714f7010f" +
			"08080808080815f8011009090909090916f901110a0a0a0a0a0a17fa01120b0b0b0b0b0b18fb01130c0c0c0c0c0c19fc01140d0d0d0d0d0d1afd0115" +
			"0e0e0e0e0e0e1bfe01160f0f0f0f0f0f1cff01171010101010101d0001181111111111111e0101191212121212121f02011a1313131313132003011b" +
			"1414141414142104011c1515151515152205011d1616161616162306011e1717171717172407011f181818181818250803e4e00a675a",
		"46534e5001000000000000000000000000000000000000000000000000000000a50174f6034032020100000000000010010302010101010101110104" +
			"03020202020202120105040303030303031301060504040404040414010706050505050505150108070606060606061601090807070707070717010a" +
			"0908080808080818010b0a09090909090919010c0b0a0a0a0a0a0a1a010d0c0b0b0b0b0b0b1b010e0d0c0c0c0c0c0c1c010f0e0d0d0d0d0d0d1d0110" +
			"0f0e0e0e0e0e0e1e0111100f0f0f0f0f0f1f011211101010101010200113121111111111112101141312121212121222011514131313131313230116" +
			"1514141414141424011716151515151515250118171616161616162601191817171717171727011a1918181818181828031b0200000000000020011c" +
			"0301010101010121011d0402020202020222011e0503030303030323011f060404040404042401200705050505050525012108060606060606260122" +
			"090707070707072701230a0808080808082801240b0909090909092901250c0a0a0a0a0a0a2a01260d0b0b0b0b0b0b2b01270e0c0c0c0c0c0c2c0128" +
			"0f0d0d0d0d0d0d2d0129100e0e0e0e0e0e2e012a110f0f0f0f0f0f2f012b1210101010101030012c1311111111111131012d1412121212121232012e" +
			"1513131313131333012f161414141414143401301715151515151535013118161616161616360132191717171717173701331a181818181818380386" +
			"5cc8075a",
		"46534e5001000000000000000000000000000000000000000000000000000000a5017420100304e0000000000000000305e1000000000000000306e2" +
			"00000000000000037caf15c45a",
		"46534e5001000000000000000000000000000000000000000000000000000000a501747a200c14030000000000003001150401010101010131011605" +
			"02020202020232011706030303030303330118070404040404043401190805050505050535011a0906060606060636011b0a07070707070737011c0b" +
			"08080808080838011d0c09090909090939011e0d0a0a0a0a0a0a3a011f0e0b0b0b0b0b0b3b01368174315a",
	}
	for i, b := range goldenBatches() {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf, snapshot.Header{})
		if err != nil {
			t.Fatal(err)
		}
		w.Section("t")
		if err := b.Save(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != want[i] {
			t.Errorf("batch %d: Save bytes\n%s\nwant\n%s", i, got, want[i])
		}
		r, _, err := snapshot.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		var got Batch
		if err := got.Restore(r); err != nil {
			t.Fatalf("batch %d: restore: %v", i, err)
		}
		if got.N != b.N || !slices.Equal(got.Runs, b.Runs) || !slices.Equal(got.Data, b.Data) {
			t.Errorf("batch %d: restored %+v, saved %+v", i, got, *b)
		}
	}
}

// checkCanonical fails unless b's runs are in the canonical layout: in
// range and increasing, no zero-length run, no non-Last run directly
// followed by a contiguous one, and exactly as many data words as flits.
func checkCanonical(t *testing.T, b *Batch) {
	t.Helper()
	flits, end := 0, -1
	for i, r := range b.Runs {
		if r.Len <= 0 || int(r.Off) < end || int(r.Off+r.Len) > b.N {
			t.Fatalf("run %d %+v out of order, empty or past the window %d: %v", i, r, b.N, b.Runs)
		}
		if i > 0 && int(r.Off) == end && !b.Runs[i-1].Last {
			t.Fatalf("run %d %+v continues non-Last run %+v: %v", i, r, b.Runs[i-1], b.Runs)
		}
		end = int(r.Off + r.Len)
		flits += int(r.Len)
	}
	if flits != len(b.Data) {
		t.Fatalf("runs hold %d flits, Data %d words", flits, len(b.Data))
	}
}

// FuzzBatchRuns checks the run layout against a dense []Token oracle:
// any sequence of Put, PutRun, Filter and Mutate gives the batch the
// oracle's At, Each and Occupied, keeps its runs canonical, and
// checkpoints and restores to an equal batch.
func FuzzBatchRuns(f *testing.F) {
	f.Add([]byte{16, 1, 0, 7, 1, 2, 4, 0, 0, 2, 3, 3, 5})
	f.Add([]byte{0, 0, 3})
	f.Add([]byte{40, 1, 0, 9, 1, 0, 5, 0, 0, 1, 0, 1, 0, 1, 1, 3, 3, 1, 0, 8, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 1 + int(ops[0])
		b, dense := NewBatch(n), make([]Token, n)
		off, data := 0, uint64(0)
		for rest := ops[1:]; len(rest) >= 3; rest = rest[3:] {
			op, arg, arg2 := rest[0]%4, int(rest[1]), rest[2]
			switch op {
			case 0, 1: // Put or PutRun after a gap of arg%8 cycles
				off += arg % 8
				k := min(int(arg2>>1)%16, n-off)
				if op == 0 {
					k = min(1, n-off)
				}
				if k <= 0 {
					continue
				}
				last := arg2&1 != 0
				run := make([]uint64, k)
				for j := range run {
					data++
					run[j] = data
					dense[off+j] = tok(data, last && j == k-1)
				}
				if op == 0 {
					b.Put(off, dense[off])
				} else {
					b.PutRun(off, run, last)
				}
				off += k
			case 2: // Filter out every offset ≡ arg2 modulo 1+arg%5
				m := 1 + arg%5
				keep := func(o int, _ Token) bool { return o%m != int(arg2)%m }
				b.Filter(keep)
				for o := range dense {
					if dense[o].Valid && !keep(o, dense[o]) {
						dense[o] = Empty
					}
				}
			default: // Mutate: corrupt, drop, or flip Last, by offset
				fn := func(o int, t Token) Token {
					switch (o + arg) % 4 {
					case 0:
						t.Data ^= uint64(arg2)
					case 1:
						t.Last = !t.Last
					case 2:
						if arg2&1 != 0 {
							t.Valid = false
						}
					}
					return t
				}
				b.Mutate(fn)
				for o := range dense {
					if dense[o].Valid {
						if dense[o] = fn(o, dense[o]); !dense[o].Valid {
							dense[o] = Empty
						}
					}
				}
			}
		}

		checkCanonical(t, b)
		var each, want []Token
		for o, d := range dense {
			if got := b.At(o); got != d {
				t.Fatalf("At(%d) = %v, oracle %v", o, got, d)
			}
			if d.Valid {
				want = append(want, d)
			}
		}
		b.Each(func(o int, t Token) { each = append(each, t) })
		if !slices.Equal(each, want) {
			t.Fatalf("Each %v, oracle %v", each, want)
		}
		if b.Occupied() != len(want) || b.IsEmpty() != (len(want) == 0) {
			t.Fatalf("Occupied %d IsEmpty %v, oracle holds %d", b.Occupied(), b.IsEmpty(), len(want))
		}

		var buf bytes.Buffer
		w, _ := snapshot.NewWriter(&buf, snapshot.Header{})
		w.Section("t")
		if err := b.Save(w); err != nil {
			t.Fatal(err)
		}
		w.Close()
		r, _, _ := snapshot.NewReader(&buf)
		r.Next()
		var got Batch
		if err := got.Restore(r); err != nil {
			t.Fatal(err)
		}
		if got.N != b.N || !slices.Equal(got.Runs, b.Runs) || !slices.Equal(got.Data, b.Data) {
			t.Fatalf("restored %+v, saved %+v", got, *b)
		}
	})
}

// BenchmarkBatchFrames is the token layer's share of a streaming link:
// one 512-cycle window of 25-flit frames every 50 cycles (the last one
// cut by the window end) written with PutRun, then reassembled run by
// run as the switch and NIC ingress paths do.
func BenchmarkBatchFrames(b *testing.B) {
	data := make([]uint64, 25)
	batch := NewBatch(512)
	var frame []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch.Reset(512)
		for off := 0; off < 512; off += 50 {
			k := min(25, 512-off)
			batch.PutRun(off, data[:k], k == 25)
		}
		pos := 0
		for _, r := range batch.Runs {
			frame = append(frame, batch.Data[pos:pos+int(r.Len)]...)
			pos += int(r.Len)
			if r.Last {
				frame = frame[:0]
			}
		}
	}
}
