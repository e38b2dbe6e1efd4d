package transport

import (
	"testing"
	"time"
)

// TestJitterBackoffBounds: DialToken's retry jitter stays within ±20% and
// is deterministic per (name, attempt) — a respawned fleet spreads out, a
// re-run of the same dialer reproduces the same delays.
func TestJitterBackoffBounds(t *testing.T) {
	base := 100 * time.Millisecond
	lo := time.Duration(float64(base) * 0.8)
	hi := time.Duration(float64(base) * 1.2)
	seen := make(map[time.Duration]bool)
	for attempt := 1; attempt <= 32; attempt++ {
		d := jitterBackoff("shard7", attempt, base)
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v)", attempt, d, lo, hi)
		}
		if d != jitterBackoff("shard7", attempt, base) {
			t.Fatalf("attempt %d: jitter not deterministic", attempt)
		}
		seen[d] = true
	}
	if len(seen) < 16 {
		t.Fatalf("only %d distinct delays over 32 attempts; jitter is not spreading", len(seen))
	}
	if jitterBackoff("shard1", 1, base) == jitterBackoff("shard2", 1, base) {
		t.Fatal("different dialers produced identical first delays; fleet would redial in lockstep")
	}
}
