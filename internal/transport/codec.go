package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/token"
)

// Wire codec v3: run-length-encoded batch frames.
//
// The v2 codec (now only a test oracle, v2_test.go) spent 13 bytes per
// occupied cycle — a 4-byte absolute offset, 8 data bytes and a flag
// byte — plus a fixed 16-byte header per frame, and issues one buffered
// Write per occupied cycle. Both common cases waste most of that: an
// idle link ships empty batches (16 header bytes for zero payload), and
// an active link ships contiguous bursts whose offsets differ by exactly
// 1 with identical flags.
//
// A v3 frame encodes the batch as runs of consecutive flits:
//
//	uvarint seq                         absolute frame sequence number
//	uvarint N                           cycles covered by the batch
//	uvarint runCount                    number of runs that follow
//	per run:
//	  uvarint gap                       run start − end of previous run
//	  uvarint runLen<<1 | lastBit       flits in the run, shared Last flag
//	  runLen × 8-byte big-endian data   one word per flit
//
// A wire run is a maximal span of flits at consecutive offsets sharing
// one Last flag; Valid is implicit (stored tokens are always valid,
// exactly the invariant the v2 decoder enforces). A batch run whose final
// flit is Last is therefore a non-Last wire run plus a one-flit Last wire
// run, and one-flit frames on consecutive cycles share one Last wire
// run. The previous-run end starts at offset 0, so gaps are non-negative
// by construction and overlapping or reordered runs are unrepresentable. The sequence number is encoded as
// its absolute value — not a delta — so the bridge's per-frame sequence
// check compares it directly with the batch it expects.
//
// Costs: an empty batch is 3–4 bytes (vs 16); a dense contiguous batch
// is ~8.2 bytes/flit (vs 13); the whole frame is appended to one scratch
// buffer and written with a single Write.

// maxBatchCycles bounds the decoded N as a sanity check against corrupt
// streams; it matches the v2 codec's implicit uint32 offset ceiling.
const maxBatchCycles = 1 << 32

// maxFlits bounds decoded batch occupancy as a sanity check against
// corrupt streams.
const maxFlits = 1 << 24

// frameWireBytes is the on-wire size one sequenced batch frame had under
// the v2 codec: 8-byte sequence header, 8-byte batch header, 13 bytes per
// occupied cycle. The bridge prices its precodec (baseline) accounting
// with it; it is not what crosses the wire.
func frameWireBytes(flits int) uint64 { return 8 + 8 + 13*uint64(flits) }

// appendFrame appends the complete v3 encoding of one sequenced batch
// frame to dst and returns the extended slice. It performs no I/O and no
// allocation beyond growing dst.
func appendFrame(dst []byte, seq uint64, b *token.Batch) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(b.N))
	runs := 0
	for w := (wireRuns{runs: b.Runs}); ; runs++ {
		if _, k, _ := w.next(); k == 0 {
			break
		}
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	prev, pos := 0, 0
	for w := (wireRuns{runs: b.Runs}); ; {
		start, k, last := w.next()
		if k == 0 {
			break
		}
		dst = binary.AppendUvarint(dst, uint64(start-prev))
		desc := uint64(k) << 1
		if last {
			desc |= 1
		}
		dst = binary.AppendUvarint(dst, desc)
		for _, d := range b.Data[pos : pos+k] {
			dst = binary.BigEndian.AppendUint64(dst, d)
		}
		prev, pos = start+k, pos+k
	}
	return dst
}

// wireRuns cuts a batch's runs into wire runs, in order.
type wireRuns struct {
	runs []token.Run
	i    int  // the run the next wire run starts in
	tail bool // runs[i] is Last and all but its final flit are written
}

// next returns the next wire run's start offset, length and Last flag,
// or a zero length after the last one.
func (w *wireRuns) next() (start, k int, last bool) {
	if w.i == len(w.runs) {
		return 0, 0, false
	}
	r := w.runs[w.i]
	if !r.Last {
		w.i++
		return int(r.Off), int(r.Len), false
	}
	if !w.tail && r.Len > 1 {
		w.tail = true
		return int(r.Off), int(r.Len) - 1, false
	}
	// The run's Last flit, merged with the one-flit frames right after it.
	w.tail = false
	start = int(r.Off+r.Len) - 1
	end := start + 1
	for w.i++; w.i < len(w.runs); w.i++ {
		r := w.runs[w.i]
		if !r.Last || r.Len != 1 || int(r.Off) != end {
			break
		}
		end++
	}
	return start, end - start, true
}

// readFrameSeq reads a frame's leading sequence number. io.EOF before the
// first byte is a clean close and passes through; a stream ending inside
// the varint is a torn frame and surfaces as io.ErrUnexpectedEOF (which
// binary.ReadUvarint already maps).
func readFrameSeq(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// readBatchV3 decodes a v3 batch body (everything after the sequence
// number) from r into dst, which is Reset first. Malformed input — zero-
// length runs, flit totals past N or the occupancy ceiling, truncated
// varints or data words — returns an error and never panics; io.EOF
// mid-body surfaces as io.ErrUnexpectedEOF because the frame's sequence
// number was already consumed. A non-Last wire run goes in with one
// PutRun per decodeChunk words, a Last one with one PutRun per flit (each
// flit is a frame of its own). The decode is allocation-free once dst
// has warmed up.
func readBatchV3(r *bufio.Reader, dst *token.Batch) error {
	nv, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("transport: read batch cycles: %w", tornEOF(err))
	}
	if nv == 0 || nv > maxBatchCycles {
		return fmt.Errorf("transport: corrupt batch: covers %d cycles", nv)
	}
	n := int(nv)
	runs, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("transport: read run count: %w", tornEOF(err))
	}
	// Every run carries at least one flit, so the run count is bounded by
	// the same occupancy ceiling as the flits themselves.
	if runs > maxFlits {
		return fmt.Errorf("transport: corrupt batch: %d runs", runs)
	}
	dst.Reset(n)
	var words [decodeChunk]uint64
	next := 0 // one past the previous run's end
	total := 0
	for ri := uint64(0); ri < runs; ri++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("transport: read run gap: %w", tornEOF(err))
		}
		desc, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("transport: read run descriptor: %w", tornEOF(err))
		}
		runLen := desc >> 1
		last := desc&1 != 0
		if runLen == 0 {
			return fmt.Errorf("transport: corrupt batch: empty run %d", ri)
		}
		if gap > uint64(n) || runLen > uint64(n) {
			return fmt.Errorf("transport: corrupt batch: run %d at gap %d, length %d exceeds %d cycles", ri, gap, runLen, n)
		}
		start := next + int(gap)
		end := start + int(runLen)
		if end > n {
			return fmt.Errorf("transport: corrupt batch: run %d spans [%d,%d) past %d cycles", ri, start, end, n)
		}
		total += int(runLen)
		if total > maxFlits {
			return fmt.Errorf("transport: corrupt batch: %d flits", total)
		}
		for off := start; off < end; {
			k := min(end-off, decodeChunk)
			p, err := r.Peek(8 * k)
			if err != nil {
				return fmt.Errorf("transport: read run data: %w", tornEOF(err))
			}
			for j := range words[:k] {
				words[j] = binary.BigEndian.Uint64(p[8*j:])
			}
			r.Discard(8 * k)
			if !last {
				dst.PutRun(off, words[:k], false)
			} else {
				for j := range words[:k] {
					dst.PutRun(off+j, words[j:j+1], true)
				}
			}
			off += k
		}
		next = end
	}
	return nil
}

// decodeChunk is how many data words the decoder peeks at once; 8 times
// it must fit the bufio.Reader's buffer (4096 bytes by default).
const decodeChunk = 64

// tornEOF maps a clean EOF inside a frame body to io.ErrUnexpectedEOF:
// the caller has already consumed part of the frame, so the stream ending
// here is a truncation, not a graceful close.
func tornEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
