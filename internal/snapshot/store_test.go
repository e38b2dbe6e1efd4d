package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeGen is a test helper that saves one small but multi-section
// generation at the given cycle.
func writeGen(t *testing.T, s *Store, cycle uint64) {
	t.Helper()
	err := s.Save(cycle, func(w io.Writer) error {
		sw, err := NewWriter(w, Header{TopologyHash: 0xfeed, Cycle: cycle, Step: 8})
		if err != nil {
			return err
		}
		sw.Section("node/server0")
		sw.Begin("test.node", 1)
		sw.U64(cycle)
		sw.String("some state")
		sw.Section("links")
		sw.Begin("test.links", 1)
		for i := 0; i < 16; i++ {
			sw.U64(uint64(i) * cycle)
		}
		return sw.Close()
	})
	if err != nil {
		t.Fatalf("Save(%d): %v", cycle, err)
	}
}

// genFile locates the on-disk generation file for a cycle (the name
// embeds a content CRC, so tests find it by prefix).
func genFile(t *testing.T, dir string, cycle uint64) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ckpt-%016x-*.fsnp", cycle)))
	if err != nil || len(matches) != 1 {
		t.Fatalf("generation file for cycle %d: matches=%v err=%v", cycle, matches, err)
	}
	return matches[0]
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, s, 100)
	writeGen(t, s, 200)

	cycles, err := s.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 || cycles[0] != 100 || cycles[1] != 200 {
		t.Fatalf("Cycles = %v, want [100 200]", cycles)
	}
	data, err := s.Load(200)
	if err != nil {
		t.Fatal(err)
	}
	h, infos, err := Inspect(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if h.Cycle != 200 || len(infos) != 2 {
		t.Fatalf("loaded header %+v with %d sections", h, len(infos))
	}
	cycle, _, ok := latest(s)
	if !ok || cycle != 200 {
		t.Fatalf("latest = %d, %v; want 200, true", cycle, ok)
	}
}

// latest is the rewind point a coordinator picks for one store — the
// newest intact generation — and its bytes.
func latest(s *Store) (cycle uint64, data []byte, ok bool) {
	cycle, ok = CoordinatedCycle([]*Store{s})
	if !ok {
		return 0, nil, false
	}
	data, err := s.Load(cycle)
	return cycle, data, err == nil
}

func TestStoreFailedSaveLeavesNoGeneration(t *testing.T) {
	s, err := NewStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, s, 100)
	saveErr := s.Save(200, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return fmt.Errorf("node not quiescent")
	})
	if saveErr == nil {
		t.Fatal("Save with failing fn returned nil")
	}
	cycles, _ := s.Cycles()
	if len(cycles) != 1 || cycles[0] != 100 {
		t.Fatalf("Cycles after failed save = %v, want [100]", cycles)
	}
	// No temp litter either.
	entries, _ := os.ReadDir(s.Dir())
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("failed save left temp file %q", e.Name())
		}
	}
}

func TestStoreRetentionGC(t *testing.T) {
	s, err := NewStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint64{10, 20, 30, 40} {
		writeGen(t, s, c)
	}
	cycles, _ := s.Cycles()
	if len(cycles) != 2 || cycles[0] != 30 || cycles[1] != 40 {
		t.Fatalf("Cycles after GC = %v, want [30 40]", cycles)
	}
}

// TestStoreTornNewestFallsBack is the torn-checkpoint recovery matrix: a
// shard killed mid-checkpoint-write (or a filesystem tearing the file
// after the fact) must leave the store falling back to the previous good
// generation, never erroring out and never serving the torn bytes. The
// newest generation file is truncated at EVERY byte boundary — which
// sweeps through every boundary class of the format: mid-header,
// mid-section-marker, mid-name, mid-length, mid-payload, mid-CRC, and
// missing trailer — and additionally corrupted by a bit flip at every
// offset.
func TestStoreTornNewestFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, s, 100)
	writeGen(t, s, 200)

	newest := genFile(t, dir, 200)
	pristine, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if len(pristine) < 40 {
		t.Fatalf("test stream too small (%d bytes) to exercise boundary classes", len(pristine))
	}

	check := func(t *testing.T, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(newest, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		cycle, data, ok := latest(s)
		if !ok {
			t.Fatal("latest found nothing; want fallback to generation 100")
		}
		if cycle != 100 {
			t.Fatalf("latest = cycle %d, want fallback to 100", cycle)
		}
		if h, _, err := Inspect(strings.NewReader(string(data))); err != nil || h.Cycle != 100 {
			t.Fatalf("fallback bytes invalid: cycle %d err %v", h.Cycle, err)
		}
		// Load of the torn cycle itself must error, not serve garbage.
		if _, err := s.Load(200); err == nil {
			t.Fatal("Load(200) of torn file succeeded")
		}
	}

	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(pristine); cut++ {
			check(t, pristine[:cut])
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for off := 0; off < len(pristine); off++ {
			mutated := append([]byte(nil), pristine...)
			mutated[off] ^= 0x40
			check(t, mutated)
		}
	})
	t.Run("empty", func(t *testing.T) {
		check(t, nil)
	})

	// Restore the pristine newest generation: the store must serve it
	// again (nothing above deleted it permanently beyond our rewrites).
	if err := os.WriteFile(newest, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if cycle, _, ok := latest(s); !ok || cycle != 200 {
		t.Fatalf("after repair latest = %d, %v; want 200", cycle, ok)
	}
}

// A bit flip that lands in a section payload must fail the CRC even
// though the overall framing lengths still parse.
func TestStoreCRCMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	writeGen(t, s, 7)
	name := genFile(t, dir, 7)
	data, _ := os.ReadFile(name)
	// Flip a byte well inside the first section payload (past the 32-byte
	// header and the section preamble).
	data[40] ^= 0xff
	os.WriteFile(name, data, 0o644)
	if cycles, _ := s.Cycles(); len(cycles) != 0 {
		t.Fatalf("corrupt-only store lists cycles %v", cycles)
	}
	if _, _, ok := latest(s); ok {
		t.Fatal("latest returned a corrupt generation")
	}
}

func TestCoordinatedCycle(t *testing.T) {
	base := t.TempDir()
	var stores []*Store
	for i := 0; i < 3; i++ {
		st, err := NewStore(filepath.Join(base, fmt.Sprintf("sub%d", i)), 4)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	for _, st := range stores {
		writeGen(t, st, 100)
		writeGen(t, st, 200)
	}
	// Only store 0 reached 300; the coordinated point stays at 200.
	writeGen(t, stores[0], 300)
	c, ok := CoordinatedCycle(stores)
	if !ok || c != 200 {
		t.Fatalf("CoordinatedCycle = %d, %v; want 200, true", c, ok)
	}
	// Tear store 1's generation 200: coordination falls back to 100.
	torn := genFile(t, stores[1].Dir(), 200)
	data, _ := os.ReadFile(torn)
	os.WriteFile(torn, data[:len(data)/2], 0o644)
	c, ok = CoordinatedCycle(stores)
	if !ok || c != 100 {
		t.Fatalf("CoordinatedCycle after tear = %d, %v; want 100, true", c, ok)
	}
}

// TestStoreSameCycleOverwrite: re-saving a cycle replaces the previous
// generation file for that cycle, even when the content (and therefore
// the CRC-named file) differs — the recovery path re-runs a slice whose
// earlier, degraded persist must not survive as an alternative Load
// result.
func TestStoreSameCycleOverwrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two different payloads for the same cycle.
	save := func(tag string) {
		t.Helper()
		err := s.Save(64, func(w io.Writer) error {
			sw, err := NewWriter(w, Header{TopologyHash: 0xfeed, Cycle: 64, Step: 8})
			if err != nil {
				return err
			}
			sw.Section("node/server0")
			sw.Begin("test.node", 1)
			sw.String(tag)
			return sw.Close()
		})
		if err != nil {
			t.Fatalf("Save(%s): %v", tag, err)
		}
	}
	save("degraded")
	save("good")
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.fsnp"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one generation file, got %v (err %v)", matches, err)
	}
	data, err := s.Load(64)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "good") || strings.Contains(string(data), "degraded") {
		t.Fatalf("Load returned the stale generation")
	}
}
