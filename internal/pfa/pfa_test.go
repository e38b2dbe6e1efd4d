package pfa

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
)

const usCycles = 3200

// runApp wires an app node and a memory blade through a ToR switch and
// runs the workload to completion.
func runApp(t *testing.T, mode Mode, localPages int, pattern AccessPattern) Result {
	t.Helper()
	appNode := softstack.NewNode(softstack.Config{Name: "app", MAC: 0x1, IP: 0x0a000001, Seed: 1})
	bladeNode := softstack.NewNode(softstack.Config{Name: "blade", MAC: 0x2, IP: 0x0a000002, Seed: 2})
	NewBlade(bladeNode)

	sw := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
	sw.MACTable().Set(0x1, 0)
	sw.MACTable().Set(0x2, 1)
	r := fame.NewRunner()
	r.Add(appNode)
	r.Add(bladeNode)
	r.Add(sw)
	const linkLat = 2 * usCycles
	if err := r.Connect(appNode, 0, sw, 0, linkLat); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(bladeNode, 0, sw, 1, linkLat); err != nil {
		t.Fatal(err)
	}

	pattern.Reset()
	app := NewApp(appNode, AppConfig{
		Mode:             mode,
		Blade:            0x2,
		LocalPages:       localPages,
		Pattern:          pattern,
		ComputePerAccess: clock.Cycles(2 * usCycles), // 2 us of compute per page touch
	}, 0)

	for !app.Done() && r.Cycle() < 40_000_000_000 {
		if err := r.Run(linkLat * 64); err != nil {
			t.Fatal(err)
		}
	}
	if !app.Done() {
		t.Fatal("application did not complete")
	}
	return app.Result()
}

const (
	testPages    = 2048
	testAccesses = 20000
)

func genome() AccessPattern { return NewGenomePattern(testPages, testAccesses, 99) }
func qsort() AccessPattern  { return NewQsortPattern(testPages, 2) }

func TestAllLocalNoFaults(t *testing.T) {
	res := runApp(t, SoftwarePaging, testPages, genome())
	// First touches still fault (cold misses into empty local memory)...
	if res.Evictions != 0 {
		t.Errorf("evictions = %d with all-local memory", res.Evictions)
	}
	if res.Faults > testPages {
		t.Errorf("faults = %d, want <= %d cold misses", res.Faults, testPages)
	}
}

func TestEvictionCountsMatchAcrossModes(t *testing.T) {
	// "the number of evicted pages is the same in both cases" — the
	// replacement policy is mode-independent.
	sw := runApp(t, SoftwarePaging, testPages/2, genome())
	hw := runApp(t, PFAMode, testPages/2, genome())
	if sw.Evictions != hw.Evictions {
		t.Errorf("evictions differ: software %d, PFA %d", sw.Evictions, hw.Evictions)
	}
	if sw.Faults != hw.Faults {
		t.Errorf("faults differ: software %d, PFA %d", sw.Faults, hw.Faults)
	}
	if sw.Evictions == 0 {
		t.Error("test produced no evictions; pattern too small")
	}
}

func TestPFASpeedupOnGenome(t *testing.T) {
	// Figure 11: on the thrashing Genome workload the PFA reduces
	// overhead by up to ~1.4x.
	sw := runApp(t, SoftwarePaging, testPages/2, genome())
	hw := runApp(t, PFAMode, testPages/2, genome())
	ratio := float64(sw.Runtime) / float64(hw.Runtime)
	if ratio < 1.1 || ratio > 1.6 {
		t.Errorf("software/PFA runtime ratio = %.2f, want ~1.2-1.5 (paper: up to 1.4)", ratio)
	}
}

func TestQsortLessSensitiveThanGenome(t *testing.T) {
	// "Quicksort is known to have good cache behavior and does not
	// experience significant slowdowns when swapping" — its SW/PFA gap
	// must be smaller than Genome's at the same local-memory fraction.
	gSW := runApp(t, SoftwarePaging, testPages/2, genome())
	gHW := runApp(t, PFAMode, testPages/2, genome())
	qSW := runApp(t, SoftwarePaging, testPages/2, qsort())
	qHW := runApp(t, PFAMode, testPages/2, qsort())

	gRatio := float64(gSW.Runtime) / float64(gHW.Runtime)
	qRatio := float64(qSW.Runtime) / float64(qHW.Runtime)
	if qRatio >= gRatio {
		t.Errorf("qsort ratio (%.3f) >= genome ratio (%.3f); locality advantage lost", qRatio, gRatio)
	}
}

func TestQsortLocality(t *testing.T) {
	// Depth-first partitioning over half-resident memory: only the
	// top few recursion levels fault; the vast majority of accesses hit.
	res := runApp(t, SoftwarePaging, testPages/2, qsort())
	// Count total accesses in the trace.
	q := qsort()
	accesses := uint64(0)
	for {
		if _, ok := q.Next(); !ok {
			break
		}
		accesses++
	}
	if res.Faults*3 >= accesses {
		t.Errorf("qsort miss rate too high: %d faults / %d accesses", res.Faults, accesses)
	}
}

func TestMetadataTimeReduction(t *testing.T) {
	// "using the PFA leads to a 2.5x reduction in metadata management
	// time on average".
	sw := runApp(t, SoftwarePaging, testPages/2, genome())
	hw := runApp(t, PFAMode, testPages/2, genome())
	ratio := float64(sw.MetadataTime) / float64(hw.MetadataTime)
	if ratio < 2.0 || ratio > 3.0 {
		t.Errorf("metadata time ratio = %.2f, want ~2.5", ratio)
	}
}

func TestRuntimeShrinksWithMoreLocalMemory(t *testing.T) {
	quarter := runApp(t, PFAMode, testPages/4, genome())
	half := runApp(t, PFAMode, testPages/2, genome())
	full := runApp(t, PFAMode, testPages, genome())
	if !(quarter.Runtime > half.Runtime && half.Runtime > full.Runtime) {
		t.Errorf("runtime not monotone in local memory: %d, %d, %d",
			quarter.Runtime, half.Runtime, full.Runtime)
	}
}

func TestBladeCounts(t *testing.T) {
	appNode := softstack.NewNode(softstack.Config{Name: "app", MAC: 0x1, IP: 0x0a000001})
	bladeNode := softstack.NewNode(softstack.Config{Name: "blade", MAC: 0x2, IP: 0x0a000002})
	b := NewBlade(bladeNode)
	_ = appNode
	// Drive the handler directly: a fetch yields a response; an evict is
	// absorbed.
	req := make([]byte, 9)
	req[0] = opFetch
	b.onRequest(0, 0x1, req)
	if b.Served != 1 {
		t.Errorf("Served = %d", b.Served)
	}
	ev := make([]byte, 9+PageBytes)
	ev[0] = opEvict
	b.onRequest(0, 0x1, ev)
	if b.Stored != 1 {
		t.Errorf("Stored = %d", b.Stored)
	}
	// Malformed requests are ignored.
	b.onRequest(0, 0x1, []byte{opFetch})
	if b.Served != 1 {
		t.Error("malformed request served")
	}
}

func TestPatterns(t *testing.T) {
	g := NewGenomePattern(100, 10, 1)
	seen := 0
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		if p >= 100 {
			t.Errorf("genome page %d out of range", p)
		}
		seen++
	}
	if seen != 10 {
		t.Errorf("genome yielded %d accesses, want 10", seen)
	}
	g.Reset()
	if p, ok := g.Next(); !ok || p >= 100 {
		t.Error("genome Reset failed")
	}

	q := NewQsortPattern(4, 2)
	var got []uint64
	for {
		p, ok := q.Next()
		if !ok {
			break
		}
		got = append(got, p)
	}
	// pages=4, minSegment=2: full pass then the two halves depth-first.
	want := []uint64{0, 1, 2, 3, 0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("qsort yielded %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("qsort sequence = %v, want %v", got, want)
		}
	}
}

func TestGenomeDeterminism(t *testing.T) {
	a := NewGenomePattern(1000, 50, 7)
	b := NewGenomePattern(1000, 50, 7)
	for {
		pa, oka := a.Next()
		pb, okb := b.Next()
		if oka != okb || pa != pb {
			t.Fatal("same-seed genome patterns diverge")
		}
		if !oka {
			break
		}
	}
}
