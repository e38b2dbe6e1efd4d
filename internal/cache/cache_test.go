package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// fakeMem records accesses and returns a fixed latency.
type fakeMem struct {
	latency  clock.Cycles
	accesses []struct {
		addr  uint64
		write bool
	}
}

func (f *fakeMem) AccessLine(now clock.Cycles, addr uint64, write bool) clock.Cycles {
	f.accesses = append(f.accesses, struct {
		addr  uint64
		write bool
	}{addr, write})
	return now + f.latency
}

func newTestCache() (*Cache, *fakeMem) {
	mem := &fakeMem{latency: 100}
	// Tiny cache: 4 sets x 2 ways x 64 B lines = 512 B.
	c := New(Config{Name: "T", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 2}, mem)
	return c, mem
}

func TestMissThenHit(t *testing.T) {
	c, mem := newTestCache()
	d1 := c.Access(0, 0x40, false)
	if d1 != 2+100 {
		t.Errorf("cold miss done at %d, want 102", d1)
	}
	d2 := c.Access(d1, 0x40, false)
	if d2 != d1+2 {
		t.Errorf("hit done at %d, want %d", d2, d1+2)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(mem.accesses) != 1 {
		t.Errorf("parent saw %d accesses, want 1 refill", len(mem.accesses))
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c, _ := newTestCache()
	c.Access(0, 0x80, false)
	d := c.Access(0, 0xb8, false) // same 64 B line
	if d != 2 {
		t.Errorf("same-line access missed (done at %d)", d)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := newTestCache()
	// 4 sets: line addresses with the same set index are 4 lines apart.
	// Set 0 holds lines 0x000, 0x400 (2 ways); a third conflicting line
	// must evict the least recently used (0x000).
	c.Access(0, 0x000, false)
	c.Access(0, 0x400, false)
	c.Access(0, 0x800, false) // evicts 0x000
	if c.Contains(0x000) {
		t.Error("LRU line 0x000 still resident")
	}
	if !c.Contains(0x400) || !c.Contains(0x800) {
		t.Error("recently used lines evicted")
	}
	// Touch 0x400 to make 0x800 the LRU, then conflict again.
	c.Access(0, 0x400, false)
	c.Access(0, 0x000, false) // should evict 0x800
	if c.Contains(0x800) {
		t.Error("LRU line 0x800 still resident after touch-ordering")
	}
	if !c.Contains(0x400) {
		t.Error("MRU line 0x400 evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c, mem := newTestCache()
	c.Access(0, 0x000, true) // allocate dirty
	c.Access(0, 0x400, false)
	mem.accesses = nil
	c.Access(0, 0x800, false) // evicts dirty 0x000: writeback + refill
	if len(mem.accesses) != 2 {
		t.Fatalf("parent saw %d accesses, want writeback+refill", len(mem.accesses))
	}
	if !mem.accesses[0].write || mem.accesses[0].addr != 0x000 {
		t.Errorf("first access = %+v, want writeback of 0x000", mem.accesses[0])
	}
	if mem.accesses[1].write || mem.accesses[1].addr != 0x800 {
		t.Errorf("second access = %+v, want refill of 0x800", mem.accesses[1])
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionSkipsWriteback(t *testing.T) {
	c, mem := newTestCache()
	c.Access(0, 0x000, false)
	c.Access(0, 0x400, false)
	mem.accesses = nil
	c.Access(0, 0x800, false)
	if len(mem.accesses) != 1 {
		t.Errorf("clean eviction caused %d parent accesses, want 1", len(mem.accesses))
	}
}

func TestStacked(t *testing.T) {
	// L1 -> L2 -> mem: an L1 miss that hits L2 must cost less than one
	// that misses both.
	mem := &fakeMem{latency: 100}
	l2 := New(Config{Name: "L2", SizeBytes: 2048, LineBytes: 64, Ways: 4, HitLatency: 12}, mem)
	l1 := New(Config{Name: "L1", SizeBytes: 256, LineBytes: 64, Ways: 2, HitLatency: 1}, l2)

	dColdBoth := l1.Access(0, 0x1000, false) - 0 // misses L1 and L2
	// Evict from L1 by conflicting (L1 has 2 sets): lines 0x1000, 0x1080,
	// 0x1100 share set 0 of L1 but fit easily in L2.
	l1.Access(0, 0x1080, false)
	l1.Access(0, 0x1100, false)
	if l1.Contains(0x1000) {
		t.Fatal("test setup: 0x1000 still in L1")
	}
	start := clock.Cycles(10000)
	dL2Hit := l1.Access(start, 0x1000, false) - start
	if dL2Hit >= dColdBoth {
		t.Errorf("L2 hit (%d cycles) not faster than DRAM fill (%d cycles)", dL2Hit, dColdBoth)
	}
	if dL2Hit != 1+12 {
		t.Errorf("L2 hit latency = %d, want 13", dL2Hit)
	}
}

func TestGeometryValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero size":    {SizeBytes: 0, LineBytes: 64, Ways: 2},
		"bad ways":     {SizeBytes: 512, LineBytes: 64, Ways: 3},
		"non-pow2 set": {SizeBytes: 6 * 64, LineBytes: 64, Ways: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg, &fakeMem{})
		}()
	}
}

func TestDefaultGeometries(t *testing.T) {
	// The Table I caches must construct without panicking and have the
	// paper's capacities.
	mem := &fakeMem{latency: 100}
	l2 := New(DefaultL2(), mem)
	l1i := New(DefaultL1I(), l2)
	l1d := New(DefaultL1D(), l2)
	if l1i.Config().SizeBytes != 16<<10 || l1d.Config().SizeBytes != 16<<10 || l2.Config().SizeBytes != 256<<10 {
		t.Error("default geometries do not match Table I")
	}
}

// Property: a second access to any address immediately after the first is
// always a hit with exactly HitLatency cost, and the cache never reports
// more parent accesses than misses+writebacks.
func TestHitAfterAccessProperty(t *testing.T) {
	c, mem := newTestCache()
	var now clock.Cycles
	check := func(addrSeed uint16, write bool) bool {
		addr := uint64(addrSeed) * 8
		now = c.Access(now, addr, write)
		before := c.Stats()
		done := c.Access(now, addr, false)
		after := c.Stats()
		if after.Hits != before.Hits+1 || done != now+2 {
			return false
		}
		now = done
		return uint64(len(mem.accesses)) == after.Misses+after.Writebacks
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
