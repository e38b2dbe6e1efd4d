// Package snaptest provides the shared conformance test every
// Snapshotter implementation runs: save → restore → save must produce
// identical bytes, and truncated, bit-flipped or wrong-version streams
// must return errors without ever panicking.
package snaptest

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/snapshot"
)

// header used for all conformance streams; the values are arbitrary but
// fixed so byte comparisons are meaningful.
var header = snapshot.Header{TopologyHash: 0x5eed, Cycle: 1000, Step: 8}

// save serialises src into a single-section snapshot stream.
func save(t *testing.T, src snapshot.Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, header)
	if err != nil {
		t.Fatalf("snaptest: NewWriter: %v", err)
	}
	w.Section("state")
	if err := src.Save(w); err != nil {
		t.Fatalf("snaptest: Save: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("snaptest: Close: %v", err)
	}
	return buf.Bytes()
}

// restore feeds stream into dst, returning the first error from any
// stage. It recovers panics into test failures so a corrupted stream can
// never crash the process.
func restore(t *testing.T, dst snapshot.Snapshotter, stream []byte) (err error) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("snaptest: Restore panicked: %v", rec)
		}
	}()
	r, _, err := snapshot.NewReader(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	if _, err := r.Next(); err != nil {
		return err
	}
	if err := dst.Restore(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	// The stream must also carry its trailer; a clean component restore
	// on a truncated stream is still a truncated stream.
	if _, err := r.Next(); err != io.EOF {
		return err
	}
	return nil
}

// Save serialises src into a single-section conformance stream. Exported
// so per-layer tests can build continuation checks (checkpoint, resume,
// compare) on the same framing RoundTrip uses.
func Save(t *testing.T, src snapshot.Snapshotter) []byte {
	t.Helper()
	return save(t, src)
}

// Restore feeds a stream produced by Save into dst, failing the test on
// any error.
func Restore(t *testing.T, dst snapshot.Snapshotter, stream []byte) {
	t.Helper()
	if err := restore(t, dst, stream); err != nil {
		t.Fatalf("snaptest: Restore: %v", err)
	}
}

// RoundTrip is the conformance suite. src is a populated instance whose
// state is being checkpointed; fresh must return a new, structurally
// compatible, empty instance per call (restores mutate their target, so
// every attempt needs its own victim).
func RoundTrip(t *testing.T, src snapshot.Snapshotter, fresh func() snapshot.Snapshotter) {
	t.Helper()

	first := save(t, src)

	t.Run("SaveRestoreSaveIdentical", func(t *testing.T) {
		dst := fresh()
		if err := restore(t, dst, first); err != nil {
			t.Fatalf("restore of clean stream: %v", err)
		}
		second := save(t, dst)
		if !bytes.Equal(first, second) {
			t.Fatalf("restored state re-saves to different bytes (%d vs %d)", len(first), len(second))
		}
		// Saving must not perturb the source either.
		again := save(t, src)
		if !bytes.Equal(first, again) {
			t.Fatal("saving twice from the same source produced different bytes")
		}
	})

	t.Run("RestoreOverPopulatedTarget", func(t *testing.T) {
		// Restore decodes in place, so a restore over a populated target
		// must leave no residue of what was there: a fresh instance's
		// stream restored over src's state re-saves to exactly itself.
		empty := save(t, fresh())
		dst := fresh()
		if err := restore(t, dst, first); err != nil {
			t.Fatalf("restore of clean stream: %v", err)
		}
		if err := restore(t, dst, empty); err != nil {
			t.Fatalf("restore of a fresh instance's stream: %v", err)
		}
		if got := save(t, dst); !bytes.Equal(got, empty) {
			t.Fatalf("restore over a populated target left residue (%d vs %d bytes)", len(got), len(empty))
		}
	})

	t.Run("TruncationNeverPanics", func(t *testing.T) {
		// Every strict prefix must error. Dense sweep for short streams,
		// sampled for long ones (memory images can be megabytes).
		stride := 1
		if len(first) > 4096 {
			stride = len(first) / 4096
		}
		for n := 0; n < len(first); n += stride {
			if err := restore(t, fresh(), first[:n]); err == nil {
				t.Fatalf("truncated stream (%d/%d bytes) restored without error", n, len(first))
			}
		}
		if err := restore(t, fresh(), first[:len(first)-1]); err == nil {
			t.Fatal("stream missing only its trailer restored without error")
		}
	})

	t.Run("BitFlipsNeverPanic", func(t *testing.T) {
		// Flip one bit at a sweep of positions. Most flips must error
		// (CRC catches payload damage; framing checks catch the rest) —
		// but the invariant under test is "no panic", which restore()
		// converts to a test failure.
		stride := 1
		if len(first) > 2048 {
			stride = len(first) / 2048
		}
		mut := make([]byte, len(first))
		for pos := 0; pos < len(first); pos += stride {
			copy(mut, first)
			mut[pos] ^= 0x10
			_ = restore(t, fresh(), mut)
		}
	})

	t.Run("WrongStreamVersionErrors", func(t *testing.T) {
		mut := append([]byte(nil), first...)
		mut[4] ^= 0xFF // format version field
		if err := restore(t, fresh(), mut); err == nil {
			t.Fatal("wrong format version restored without error")
		}
	})

	t.Run("EmptySectionErrors", func(t *testing.T) {
		// A valid stream whose section carries no payload: the component
		// must fail its Begin mark, not misread garbage.
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf, header)
		if err != nil {
			t.Fatal(err)
		}
		w.Section("state")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := restore(t, fresh(), buf.Bytes()); err == nil {
			t.Fatal("empty section restored without error")
		}
	})
}
