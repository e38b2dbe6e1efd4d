package manager

import (
	"reflect"
	"testing"
)

func TestDiffHashes(t *testing.T) {
	ref := map[string]uint64{"node/a": 1, "node/b": 2, "switch/s": 3}
	if d := DiffHashes(map[string]uint64{"switch/s": 3, "node/b": 2, "node/a": 1}, ref); len(d) != 0 {
		t.Fatalf("equal maps: DiffHashes = %q, want none", d)
	}
	if d := DiffHashes(nil, nil); len(d) != 0 {
		t.Fatalf("empty maps: DiffHashes = %q, want none", d)
	}

	got := map[string]uint64{"switch/s": 4, "node/z": 9, "node/a": 1, "node/c": 5}
	want := []string{
		"node/b: missing (reference 0000000000000002)",
		"node/c: extra (run 0000000000000005)",
		"node/z: extra (run 0000000000000009)",
		"switch/s: differs (run 0000000000000004, reference 0000000000000003)",
	}
	// Repeat so map iteration order cannot leak into the report.
	for i := 0; i < 20; i++ {
		if d := DiffHashes(got, ref); !reflect.DeepEqual(d, want) {
			t.Fatalf("DiffHashes = %q, want %q", d, want)
		}
	}
}
