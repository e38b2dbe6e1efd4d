package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/token"
)

// TestMain lets the test binary stand in for the harness binary: the
// distributed smoke re-executes os.Executable() as `shard ...`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		os.Exit(shardMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }

func TestMedianPercentileSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := percentile(xs, 25); got != 20 {
		t.Errorf("p25 = %v, want 20", got)
	}
	if got := percentile(xs, 90); !near(got, 46, 1e-12) {
		t.Errorf("p90 = %v, want 46", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	ten := []float64{3, 1, 2, 6, 5, 4, 9, 8, 7, 10}
	if got, want := spread(ten), (8.25-2.75)/5.5; !near(got, want, 1e-12) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10,20,30,40,50], n=4) == [15, 30, 45].
	if got, want := spread(xs), 30.0/30; !near(got, want, 1e-12) {
		t.Errorf("spread(5) = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

// The tail a timing is reported at is the highest percentile with at
// least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// Two horizons of a synthetic system with a known rate and fixed cost
// give both back exactly.
func TestTwoHorizonDifferencing(t *testing.T) {
	const rate, fixed = 1.25e6, 0.094
	wall := func(h uint64) float64 { return fixed + float64(h)/rate }
	gotRate, gotFixed, ok := twoHorizon(16384, 2_000_000, wall(16384), wall(2_000_000))
	if !ok || !near(gotRate, rate, 1e-9) || !near(gotFixed, fixed, 1e-9) {
		t.Errorf("twoHorizon = %v Hz, %v s, %v; want %v, %v", gotRate, gotFixed, ok, rate, fixed)
	}
	if _, _, ok := twoHorizon(100, 200, 1.0, 0.9); ok {
		t.Error("a long run faster than the short one must not yield a rate")
	}
}

// sleeper is an endpoint whose tick takes a fixed amount of host time
// without competing for a CPU, and which keeps its own account of how
// long its ticks really took: on a loaded host a sleep overshoots, and the
// tracer must agree with the endpoint, not with the nominal duration.
type sleeper struct {
	name string
	d    time.Duration
	self time.Duration
}

func (s *sleeper) Name() string  { return s.name }
func (s *sleeper) NumPorts() int { return 1 }
func (s *sleeper) TickBatch(int, []*token.Batch, []*token.Batch) {
	t0 := time.Now()
	time.Sleep(s.d)
	s.self += time.Since(t0)
}

const sleepWindows = 12

func sleeperPair(t *testing.T) (r *fame.Runner, a, b *sleeper, layers map[string]layer) {
	t.Helper()
	a, b = &sleeper{name: "a", d: 6 * time.Millisecond}, &sleeper{name: "b", d: 2 * time.Millisecond}
	r = fame.NewRunner()
	r.Add(a)
	r.Add(b)
	if err := r.Connect(a, 0, b, 0, 64); err != nil {
		t.Fatal(err)
	}
	return r, a, b, map[string]layer{"a": layerSoc, "b": layerSwitch}
}

// checkTrace holds a trace of the sleeper pair against the endpoints' own
// clocks: each layer's time within 10 % of what its endpoint slept, every
// nanosecond of threads x wall accounted for, ticks and windows counted,
// window 0 kept whole.
func checkTrace(t *testing.T, tr trace, a, b *sleeper, wall time.Duration) {
	t.Helper()
	if got, want := float64(tr.ns[layerSoc]), float64(a.self.Nanoseconds()); !near(got, want, 0.1) {
		t.Errorf("6 ms endpoint charged %.0f ns, slept %.0f ns", got, want)
	}
	if got, want := float64(tr.ns[layerSwitch]), float64(b.self.Nanoseconds()); !near(got, want, 0.1) {
		t.Errorf("2 ms endpoint charged %.0f ns, slept %.0f ns", got, want)
	}
	var sum int64
	for _, v := range tr.ns {
		sum += v
	}
	if want := float64(tr.threads) * float64(wall.Nanoseconds()); !near(float64(sum), want, 0.001) {
		t.Errorf("layers sum to %d ns, %d x wall is %.0f ns", sum, tr.threads, want)
	}
	if tr.ticks != 2*sleepWindows {
		t.Errorf("ticks = %d, want %d", tr.ticks, 2*sleepWindows)
	}
	if len(tr.spans) != 3 || tr.spans[0].Name != "window" || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != tr.spans[0].ID {
		t.Errorf("kept spans = %+v, want window 0 and its 2 ticks", tr.spans)
	}
}

// On a two-endpoint sequential runner with sleeping ticks the tracer
// charges each endpoint its own time, the rest to the scheduler, and
// reports what it could not attribute.
func TestSeqTracerAttribution(t *testing.T) {
	r, a, b, layers := sleeperPair(t)
	st := newSeqTracer(layers)
	r.SetInjector(st)
	rate, err := r.Measure(sleepWindows*64, clock.DefaultTargetClock, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := st.finish(rate.Wall)
	checkTrace(t, tr, a, b, rate.Wall)
	if len(tr.windowNs) != sleepWindows {
		t.Errorf("%d windows recorded, want %d", len(tr.windowNs), sleepWindows)
	}
	// Sequentially the two ticks are nearly all of the wall time.
	if share := float64(tr.ns[layerSoc]+tr.ns[layerSwitch]) / float64(rate.Wall.Nanoseconds()); share < 0.9 {
		t.Errorf("ticks are %.2f of the wall, want > 0.9", share)
	}
	res := newResult("fake", 1)
	res.zeroLayerMetrics()
	res.attribution(tr, sleepWindows, rate.Wall, rate.Wall, sleepWindows)
	if _, ok := res.Metrics["unattributed_ns_per_window"]; !ok {
		t.Error("unattributed share is not reported")
	}
	if got, want := res.Metrics["soc.tick_ns_per_window"].Value, float64(a.self.Nanoseconds())/sleepWindows; !near(got, want, 0.1) {
		t.Errorf("soc.tick_ns_per_window = %.0f, want %.0f within 10%%", got, want)
	}
}

// The pool tracer sees the same ticks from two worker goroutines; what is
// left of threads x wall is the scheduler's.
func TestPoolTracerAttribution(t *testing.T) {
	r, a, b, layers := sleeperPair(t)
	if err := r.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	pt := newPoolTracer(layers, "a")
	r.SetInjector(pt)
	rate, err := r.Measure(sleepWindows*64, clock.DefaultTargetClock, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.EffectiveWorkers() != 2 {
		t.Fatalf("pool scheduler ran %d worker(s), want 2", r.EffectiveWorkers())
	}
	checkTrace(t, pt.finish(rate.Wall, 2), a, b, rate.Wall)
}

// A planted hash mismatch is counted as exactly one failed operation.
func TestPlantedMismatchCounts(t *testing.T) {
	want := state{hashes: map[string]uint64{"node/a": 1, "switch/tor": 2}, counters: counters{Flits: 7}}
	got := state{hashes: map[string]uint64{"node/a": 1, "switch/tor": 2}, counters: counters{Flits: 7}}
	res := newResult("fake", 1)
	res.check("oracle prefix", want.diff(got))
	if res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("identical states: attempted %d failed %d", res.Attempted, res.Failed)
	}
	got.hashes["switch/tor"] = 3
	res.check("oracle prefix", want.diff(got))
	if res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("planted mismatch: attempted %d failed %d, want 2 and 1", res.Attempted, res.Failed)
	}
	var out bytes.Buffer
	res.print(&out)
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != 1 {
		t.Errorf("contract line = %+v, want correct=false failed=1", last)
	}
	got.counters.Flits = 8
	if want.diff(got) == "" {
		t.Error("a counter mismatch went unnoticed")
	}
}

func TestSelfcheckVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{60, 100, 140, 80, 120}
	if _, v := compare(100, 104, steady, steady, 0.1, 0); v != agree {
		t.Errorf("4%% gap at a 10%% bound: %s", v)
	}
	if _, v := compare(100, 115, steady, steady, 0.1, 0); v != disagree {
		t.Errorf("15%% gap at a 10%% bound: %s", v)
	}
	if _, v := compare(100, 101, noisy, steady, 0.1, 0); v != unresolved {
		t.Errorf("samples spreading past the bound must be unresolved, got %s", v)
	}
	if _, v := compare(0.001, 0.002, noisy, noisy, 0.1, setupFloorS); v != agree {
		t.Errorf("a 1 ms change is below the set-up floor, got %s", v)
	}
}

// BENCHMARK.json and the harness must name the same things.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness pins horizons for %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], harness has %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// contractLine runs the harness in-process and parses its last line.
func contractLine(t *testing.T, args ...string) map[string]metric {
	t.Helper()
	var out bytes.Buffer
	if code := run(append(args, "-quick", "-out", t.TempDir()), &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("bench %v: correct=%v attempted=%d failed=%d\n%s", args, last.Correct, last.Attempted, last.Failed, out.String())
	}
	if !strings.Contains(out.String(), "target_digest") {
		t.Errorf("bench %v printed no target_digest", args)
	}
	return last.Metrics
}

// The -quick smoke: one pass of every kind (in-process and distributed,
// untraced and traced, sequential and pool, softstack and SoC) runs clean
// and prints exactly the metrics BENCHMARK.json names.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shard processes")
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ workload, trace string }{
		{"rack8-stream", "0"}, {"dist8-ckpt", "0"},
		{"tree64-ping-w2", "1"}, {"soc4-memwalk", "1"}, {"dist8-stream", "1"},
	} {
		got := contractLine(t, "-workload", c.workload, "-trace", c.trace)
		want := map[string]string{}
		if c.trace == "0" {
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bf.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", c.workload, c.trace, len(got), len(want))
		}
		for name, unit := range want {
			if m, ok := got[name]; !ok || m.Unit != unit {
				t.Errorf("%s trace=%s: metric %s [%s] missing or in another unit (%+v)", c.workload, c.trace, name, unit, m)
			}
		}
	}
}
