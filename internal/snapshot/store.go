// Store is the crash-safe on-disk home for checkpoint generations. A
// checkpoint history kept in memory dies with its process, which is
// exactly the failure a multi-process deployment must survive: a shard
// that is SIGKILLed mid-run — or mid-checkpoint-write — must come back and
// find an intact generation to rewind to.
//
// Durability discipline, per generation:
//
//  1. the stream is written to a hidden temp file in the same directory,
//  2. the temp file is fsynced (contents durable before visible),
//  3. it is atomically renamed to its final ckpt-<cycle>.fsnp name,
//  4. the directory is fsynced (the rename itself durable).
//
// A crash at any point leaves either the previous generations untouched
// plus an ignorable temp file, or the new generation complete. A torn or
// bit-rotted file that somehow does appear under the final name (partial
// rename on a dying disk, filesystem without atomic-rename guarantees,
// external truncation) is caught at read time: the file name carries a
// whole-file CRC-32 that every load re-verifies — covering even the
// bytes FSNP's per-section CRCs do not (headers, section names, framing)
// — on top of full structural validation via Inspect. The enumeration
// APIs simply skip files that fail, so callers fall back to the newest
// generation that is actually intact.
package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// storePrefix/storeSuffix frame a generation file name:
// ckpt-<cycle as 16 hex digits>-<whole-file CRC-32 as 8 hex digits>.fsnp.
// Fixed-width hex keeps lexicographic and numeric order identical.
const (
	storePrefix = "ckpt-"
	storeSuffix = ".fsnp"
	storeTemp   = ".tmp-"
)

// maxStoreFileBytes bounds how much of a checkpoint file a load is
// willing to read; a corrupted filesystem cannot make us allocate
// unbounded memory. One partition's stream is far below this.
const maxStoreFileBytes = 1 << 31

// Store manages the checkpoint generations of one partition in one
// directory. It is safe for use by one process at a time per partition
// (the coordinator serialises access); concurrent readers of other
// partitions' stores never interfere because each partition has its own
// directory.
type Store struct {
	dir    string
	retain int
}

// NewStore opens (creating if needed) the generation directory for one
// partition. retain bounds how many valid generations GC keeps
// (minimum 1; default 4 when <= 0).
func NewStore(dir string, retain int) (*Store, error) {
	if retain <= 0 {
		retain = 4
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: store: %w", err)
	}
	return &Store{dir: dir, retain: retain}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) fileFor(cycle uint64, crc uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x-%08x%s", storePrefix, cycle, crc, storeSuffix))
}

// cycleOf parses a generation file name into (cycle, expected whole-file
// CRC); ok is false for temp files and foreign names.
func cycleOf(name string) (cycle uint64, crc uint32, ok bool) {
	if !strings.HasPrefix(name, storePrefix) || !strings.HasSuffix(name, storeSuffix) {
		return 0, 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, storePrefix), storeSuffix)
	if len(hex) != 16+1+8 || hex[16] != '-' {
		return 0, 0, false
	}
	v, err := strconv.ParseUint(hex[:16], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	c, err := strconv.ParseUint(hex[17:], 16, 32)
	if err != nil {
		return 0, 0, false
	}
	return v, uint32(c), true
}

// Save durably writes the generation for the given cycle: fn streams the
// checkpoint into a temp file, which is fsynced and atomically renamed
// into place, then the directory entry is fsynced. If fn fails (for
// example a momentarily non-quiescent node), the temp file is removed
// and no generation appears — the previous ones stay untouched. After a
// successful save, retention GC runs.
func (s *Store) Save(cycle uint64, fn func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(s.dir, storeTemp+"*")
	if err != nil {
		return fmt.Errorf("snapshot: store save: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	crc := crc32.NewIEEE()
	if err := fn(io.MultiWriter(tmp, crc)); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: store save cycle %d: %w", cycle, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: store save: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: store save: close: %w", err)
	}
	final := s.fileFor(cycle, crc.Sum32())
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: store save: rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("snapshot: store save: %w", err)
	}
	// One generation per cycle, newest write wins: purge any older file
	// for the same cycle (its content CRC differs). This matters to the
	// recovery path — a slice that was later declared failed may have
	// persisted a generation built on a degraded token stream, and when
	// the re-run of that slice persists the real state for the same
	// cycle, the stale file must not remain as an alternative Load result.
	if entries, err := os.ReadDir(s.dir); err == nil {
		base := filepath.Base(final)
		for _, e := range entries {
			if c, _, ok := cycleOf(e.Name()); ok && c == cycle && e.Name() != base {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	s.GC()
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// validate reads and verifies one generation file, returning its bytes.
// The whole-file CRC from the name must match (catching any torn write,
// truncation or bit rot, including bytes FSNP's section CRCs do not
// cover) and the stream must be structurally intact.
func (s *Store) validate(path string, wantCycle uint64, wantCRC uint32) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxStoreFileBytes))
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(data); got != wantCRC {
		return nil, fmt.Errorf("%w: whole-file CRC %08x, name claims %08x", ErrFormat, got, wantCRC)
	}
	h, _, err := Inspect(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if h.Cycle != wantCycle {
		return nil, fmt.Errorf("%w: file named for cycle %d 'contains' cycle %d", ErrFormat, wantCycle, h.Cycle)
	}
	return data, nil
}

// Cycles enumerates the generations that are present AND intact, sorted
// ascending. Torn or corrupt files are skipped, not reported as errors:
// the caller's fallback to an older generation is the point of the
// store.
func (s *Store) Cycles() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: store: %w", err)
	}
	seen := make(map[uint64]bool)
	var out []uint64
	for _, e := range entries {
		cycle, crc, ok := cycleOf(e.Name())
		if !ok || seen[cycle] {
			continue
		}
		if _, err := s.validate(filepath.Join(s.dir, e.Name()), cycle, crc); err != nil {
			continue
		}
		seen[cycle] = true
		out = append(out, cycle)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Load returns the validated bytes of the generation at exactly cycle.
func (s *Store) Load(cycle uint64) ([]byte, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: store load: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		c, crc, ok := cycleOf(e.Name())
		if !ok || c != cycle {
			continue
		}
		data, err := s.validate(filepath.Join(s.dir, e.Name()), cycle, crc)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return data, nil
	}
	if firstErr != nil {
		return nil, fmt.Errorf("snapshot: store load cycle %d: %w", cycle, firstErr)
	}
	return nil, fmt.Errorf("snapshot: store load cycle %d: no generation file", cycle)
}

// LatestValid returns the newest intact generation (cycle and bytes),
// skipping over any torn or corrupt newer files. ok is false when no
// intact generation exists at all.
func (s *Store) LatestValid() (cycle uint64, data []byte, ok bool) {
	cycles, err := s.Cycles()
	if err != nil || len(cycles) == 0 {
		return 0, nil, false
	}
	for i := len(cycles) - 1; i >= 0; i-- {
		d, err := s.Load(cycles[i])
		if err != nil {
			continue
		}
		return cycles[i], d, true
	}
	return 0, nil, false
}

// GC enforces retention: every orphaned temp file is removed, every
// corrupt generation file is removed (it can never be loaded), and only
// the newest `retain` intact generations are kept. GC never touches the
// newest intact generation.
func (s *Store) GC() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("snapshot: store gc: %w", err)
	}
	type gen struct {
		cycle uint64
		path  string
	}
	var valid []gen
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, storeTemp) {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		cycle, crc, ok := cycleOf(name)
		if !ok {
			continue // foreign file: not ours to delete
		}
		path := filepath.Join(s.dir, name)
		if _, err := s.validate(path, cycle, crc); err != nil {
			os.Remove(path)
			continue
		}
		valid = append(valid, gen{cycle, path})
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].cycle < valid[j].cycle })
	if excess := len(valid) - s.retain; excess > 0 {
		for _, g := range valid[:excess] {
			os.Remove(g.path)
		}
	}
	return nil
}

// CoordinatedCycle returns the newest cycle for which EVERY listed store
// holds an intact generation — the rewind point a coordinator can
// restore a whole multi-partition simulation to. ok is false when no
// common generation exists.
func CoordinatedCycle(stores []*Store) (uint64, bool) {
	if len(stores) == 0 {
		return 0, false
	}
	common := make(map[uint64]int)
	for _, st := range stores {
		cycles, err := st.Cycles()
		if err != nil {
			return 0, false
		}
		for _, c := range cycles {
			common[c]++
		}
	}
	best, ok := uint64(0), false
	for c, n := range common {
		if n == len(stores) && (!ok || c > best) {
			best, ok = c, true
		}
	}
	return best, ok
}
