package transport

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

// encodeV3 is a test helper producing one complete v3 frame.
func encodeV3(seq uint64, b *token.Batch) []byte {
	return appendFrame(nil, seq, b)
}

// decodeV3 decodes one complete v3 frame from raw bytes.
func decodeV3(raw []byte) (uint64, *token.Batch, error) {
	r := bufio.NewReader(bytes.NewReader(raw))
	seq, err := readFrameSeq(r)
	if err != nil {
		return 0, nil, err
	}
	b := token.NewBatch(1)
	if err := readBatchV3(r, b); err != nil {
		return seq, nil, err
	}
	return seq, b, nil
}

// randomBatch builds a reproducible batch with a mix of idle stretches,
// isolated tokens and contiguous bursts (the traffic shapes the run-length
// codec was designed around), flipping the Last flag inside bursts so run
// boundaries land mid-burst too.
func randomBatch(rng *rand.Rand) *token.Batch {
	n := 1 + rng.Intn(200)
	b := token.NewBatch(n)
	for off := 0; off < n; {
		switch rng.Intn(3) {
		case 0: // idle gap
			off += 1 + rng.Intn(8)
		case 1: // isolated token
			b.Put(off, token.Token{Data: rng.Uint64(), Valid: true, Last: rng.Intn(2) == 0})
			off += 2
		default: // contiguous burst
			burst := 1 + rng.Intn(12)
			for i := 0; i < burst && off < n; i++ {
				b.Put(off, token.Token{Data: rng.Uint64(), Valid: true, Last: rng.Intn(4) == 0})
				off++
			}
		}
	}
	return b
}

// TestCodecV3RoundTrip: for arbitrary batches, the v3 frame decodes back
// to the identical batch (sequence number included), and the v2 codec —
// kept verbatim as the oracle — agrees on the semantics: decoding the v2
// encoding of the same batch yields the same result as decoding the v3
// encoding.
func TestCodecV3RoundTrip(t *testing.T) {
	check := func(seed int64, seq uint64) bool {
		b := randomBatch(rand.New(rand.NewSource(seed)))
		gotSeq, got, err := decodeV3(encodeV3(seq, b))
		if err != nil || gotSeq != seq || !reflect.DeepEqual(b, got) {
			t.Logf("v3 round-trip: seq %d->%d err %v", seq, gotSeq, err)
			return false
		}
		oracle := token.NewBatch(1)
		if err := readBatch(bytes.NewReader(encode(b)), oracle); err != nil {
			t.Logf("v2 oracle decode: %v", err)
			return false
		}
		return reflect.DeepEqual(oracle, got)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// goldenBatches are an idle batch, a sparse one, one 25-flit frame, two
// frames back to back, three one-flit frames on consecutive cycles and a
// frame cut by the window end (token's TestBatchSaveGolden pins the same
// batches' checkpoint bytes).
func goldenBatches() []*token.Batch {
	flits := func(base uint64, k int) []uint64 {
		out := make([]uint64, k)
		for j := range out {
			out[j] = base + uint64(j)*0x0101010101010101
		}
		return out
	}
	tok := func(data uint64, last bool) token.Token { return token.Token{Data: data, Valid: true, Last: last} }
	sparse := token.NewBatch(64)
	sparse.Put(3, tok(0xa1, false))
	sparse.Put(17, tok(0xb2b2b2b2b2b2b2b2, true))
	sparse.Put(40, tok(0xc3, false))
	sparse.Put(63, tok(0xd4d4000000000000, true))
	frame := token.NewBatch(64)
	frame.PutRun(7, flits(0xf00d000000000000, 25), true)
	backToBack := token.NewBatch(64)
	backToBack.PutRun(2, flits(0x1000000000000001, 25), true)
	backToBack.PutRun(27, flits(0x2000000000000002, 25), true)
	singles := token.NewBatch(16)
	for i := range 3 {
		singles.PutRun(4+i, []uint64{0xe0 + uint64(i)}, true)
	}
	cut := token.NewBatch(32)
	cut.PutRun(20, flits(0x3000000000000003, 12), false)
	return []*token.Batch{token.NewBatch(512), sparse, frame, backToBack, singles, cut}
}

// TestCodecV3Golden pins the v3 wire bytes of goldenBatches (the i-th
// sent as sequence number 7+i): each encodes byte-identically and decodes
// back to an equal batch. The three one-flit frames travel as one Last
// wire run.
func TestCodecV3Golden(t *testing.T) {
	want := []string{
		"07800400",
		"084004030200000000000000a10d03b2b2b2b2b2b2b2b2160200000000000000c31603d4d4000000000000",
		"0940020730f00d000000000000f10e010101010101f20f020202020202f310030303030303f411040404040404f512050505050505f6130606060606" +
			"06f714070707070707f815080808080808f916090909090909fa170a0a0a0a0a0afb180b0b0b0b0b0bfc190c0c0c0c0c0cfd1a0d0d0d0d0d0dfe1b0e" +
			"0e0e0e0e0eff1c0f0f0f0f0f0f001d101010101010011e111111111111021f1212121212120320131313131313042114141414141405221515151515" +
			"150623161616161616072417171717171700030825181818181818",
		"0a4004023010000000000000011101010101010102120202020202020313030303030303041404040404040405150505050505050616060606060606" +
			"0717070707070707081808080808080809190909090909090a1a0a0a0a0a0a0a0b1b0b0b0b0b0b0b0c1c0c0c0c0c0c0c0d1d0d0d0d0d0d0d0e1e0e0e" +
			"0e0e0e0e0f1f0f0f0f0f0f0f102010101010101011211111111111111222121212121212132313131313131314241414141414141525151515151515" +
			"162616161616161617271717171717171800032818181818181819003020000000000000022101010101010103220202020202020423030303030303" +
			"052404040404040406250505050505050726060606060606082707070707070709280808080808080a290909090909090b2a0a0a0a0a0a0a0c2b0b0b" +
			"0b0b0b0b0d2c0c0c0c0c0c0c0e2d0d0d0d0d0d0d0f2e0e0e0e0e0e0e102f0f0f0f0f0f0f113010101010101012311111111111111332121212121212" +
			"14331313131313131534141414141414163515151515151517361616161616161837171717171717190003381818181818181a",
		"0b1001040700000000000000e000000000000000e100000000000000e2",
		"0c2001141830000000000000033101010101010104320202020202020533030303030303063404040404040407350505050505050836060606060606" +
			"09370707070707070a380808080808080b390909090909090c3a0a0a0a0a0a0a0d3b0b0b0b0b0b0b0e",
	}
	for i, b := range goldenBatches() {
		raw := encodeV3(uint64(7+i), b)
		if got := hex.EncodeToString(raw); got != want[i] {
			t.Errorf("batch %d: wire bytes\n%s\nwant\n%s", i, got, want[i])
		}
		seq, got, err := decodeV3(raw)
		if err != nil || seq != uint64(7+i) || got.N != b.N || !slices.Equal(got.Runs, b.Runs) || !slices.Equal(got.Data, b.Data) {
			t.Errorf("batch %d: decoded seq %d %+v (err %v), sent %+v", i, seq, got, err, *b)
		}
	}
}

// TestCodecV3Compactness pins the size wins the codec exists for: an
// empty (idle-link) frame is a few header bytes, and a dense contiguous
// frame beats the v2 fixed-width framing by well over the 1.5x floor.
func TestCodecV3Compactness(t *testing.T) {
	idle := encodeV3(7, token.NewBatch(6400))
	if len(idle) > 4 {
		t.Errorf("idle frame is %d bytes, want <= 4", len(idle))
	}
	const n = 512
	dense := token.NewBatch(n)
	for i := 0; i < n; i++ {
		dense.Put(i, token.Token{Data: uint64(i), Valid: true, Last: i == n-1})
	}
	v3 := len(encodeV3(7, dense))
	v2 := int(frameWireBytes(n))
	if float64(v2) < 1.5*float64(v3) {
		t.Errorf("dense frame: v3 %d bytes vs v2 %d bytes, want >= 1.5x smaller", v3, v2)
	}
}

// TestCodecV3RejectsCorrupt throws hand-crafted malformed frames at the
// decoder: every one must error (never panic), and truncations must
// surface as io.ErrUnexpectedEOF so the bridge treats them as torn frames.
func TestCodecV3RejectsCorrupt(t *testing.T) {
	// A valid single-run frame to mutate: seq 5, N=16, one 2-slot run at
	// offset 3.
	b := token.NewBatch(16)
	b.Put(3, token.Token{Data: 1, Valid: true})
	b.Put(4, token.Token{Data: 2, Valid: true})
	valid := encodeV3(5, b)
	if _, _, err := decodeV3(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}

	cases := []struct {
		name string
		raw  []byte
		torn bool // must unwrap to io.ErrUnexpectedEOF
	}{
		{"zero cycles", []byte{5, 0}, false},
		{"cycle count overflow", append([]byte{5}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1), false},
		{"run count past occupancy ceiling", []byte{5, 16, 0xff, 0xff, 0xff, 0x7f}, false},
		{"empty run descriptor", []byte{5, 16, 1, 0, 0}, false},
		{"gap past batch end", []byte{5, 16, 1, 40, 2}, false},
		{"run length past batch end", []byte{5, 16, 1, 0, 40 << 1}, false},
		{"run spans past batch end", []byte{5, 16, 1, 10, 10 << 1}, false},
		{"truncated mid-cycle-varint", []byte{5, 0x80}, true},
		{"truncated before run count", valid[:2], true},
		{"truncated mid-descriptor", valid[:4], true},
		{"truncated mid-data-word", valid[:len(valid)-3], true},
		{"second run overlap unrepresentable", func() []byte {
			// Two runs: the second one's gap varint is forced to zero, so
			// it abuts the first — still valid. Then mutate the second
			// run's length to overrun N instead.
			bb := token.NewBatch(8)
			bb.Put(0, token.Token{Data: 1, Valid: true})
			bb.Put(2, token.Token{Data: 2, Valid: true})
			raw := encodeV3(0, bb)
			raw[len(raw)-9] = 20 << 1 // second run's descriptor: length 20 in an 8-cycle batch
			return raw
		}(), false},
	}
	for _, tc := range cases {
		_, _, err := decodeV3(tc.raw)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.torn && !(err == io.ErrUnexpectedEOF || bytes.Contains([]byte(err.Error()), []byte("unexpected EOF"))) {
			t.Errorf("%s: err = %v, want unexpected EOF", tc.name, err)
		}
	}
}

// FuzzReadBatchV3 throws arbitrary byte streams at the v3 frame decoder.
// Corrupt input must error, never panic; anything accepted must round-trip
// through the canonical encoder, and must decode to exactly what the v2
// oracle codec produces for the same batch.
func FuzzReadBatchV3(f *testing.F) {
	f.Add(encodeV3(0, token.NewBatch(4)))
	sparse := token.NewBatch(32)
	sparse.Put(3, token.Token{Data: 0xdeadbeef, Valid: true})
	sparse.Put(17, token.Token{Data: 1, Valid: true, Last: true})
	f.Add(encodeV3(9, sparse))
	dense := token.NewBatch(8)
	for i := 0; i < 8; i++ {
		dense.Put(i, token.Token{Data: uint64(i) << 40, Valid: true})
	}
	f.Add(encodeV3(1, dense))
	valid := encodeV3(9, sparse)
	f.Add(valid[:len(valid)-5]) // truncated mid-data
	f.Add(valid[:3])            // truncated mid-header
	f.Add([]byte{})
	mangled := append([]byte(nil), valid...)
	mangled[3] = 0xff // run descriptor corruption
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, got, err := decodeV3(data)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted: the canonical re-encoding must decode to the same
		// batch (input varints may be non-minimal, so bytes can differ).
		seq2, got2, err := decodeV3(encodeV3(seq, got))
		if err != nil {
			t.Fatalf("re-encoded accepted frame failed to decode: %v", err)
		}
		if seq != seq2 || !reflect.DeepEqual(got, got2) {
			t.Fatalf("round-trip changed frame: seq %d->%d, %+v vs %+v", seq, seq2, got, got2)
		}
		// Cross-check against the v2 oracle: encode the accepted batch
		// with the v2 codec and decode it; semantics must match.
		oracle := token.NewBatch(1)
		if err := readBatch(bytes.NewReader(encode(got)), oracle); err != nil {
			t.Fatalf("v2 oracle rejected an accepted batch: %v", err)
		}
		if !reflect.DeepEqual(oracle, got) {
			t.Fatalf("v3 and v2 disagree: %+v vs %+v", got, oracle)
		}
	})
}
