package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// benchVariant is one (mode, metrics) measurement at one topology size.
type benchVariant struct {
	WallNanos int64   `json:"wall_ns"`
	SimHz     float64 `json:"sim_hz"`
	Slowdown  float64 `json:"slowdown"`
}

// sweepPoint is one measurement of the worker-sweep pass: one (nodes,
// workers) cell. EffectiveWorkers records what the runner actually did — the requested count is capped at the endpoint-group
// count, so a speedup is only attributable to the effective value.
type sweepPoint struct {
	Nodes            int     `json:"nodes"`
	Workers          int     `json:"workers"`
	EffectiveWorkers int     `json:"effective_workers"`
	WallNanos        int64   `json:"wall_ns"`
	SimHz            float64 `json:"sim_hz"`
	// SpeedupVs1W is this cell's best wall time against the same size's
	// 1-worker (sequential-delegate) best: the scaling curve the sweep
	// exists to record.
	SpeedupVs1W float64 `json:"speedup_vs_1_worker"`
}

// benchResult is the sim-rate record for one topology size.
type benchResult struct {
	Nodes  int    `json:"nodes"`
	Cycles uint64 `json:"cycles"`

	Run                benchVariant `json:"run"`
	RunParallel        benchVariant `json:"run_parallel"`
	RunMetrics         benchVariant `json:"run_metrics"`
	RunParallelMetrics benchVariant `json:"run_parallel_metrics"`

	// EffectiveWorkers is what the parallel variant actually ran with (the
	// -workers request is capped at the endpoint-group count).
	EffectiveWorkers int `json:"effective_workers"`

	// Overhead of enabling metrics, percent of wall time: the median of
	// per-rep wall-time ratios. Each rep measures base and instrumented
	// back to back, so host frequency drift — which moves both sides of an
	// adjacent pair almost equally but can swing distant runs by tens of
	// percent — mostly cancels inside each ratio, and the median rejects
	// the occasional rep where a GC pause or scheduler preemption landed
	// inside one measured region. The headline numbers are clamped at 0
	// (instrumentation cannot make the simulator faster); the raw signed
	// medians are reported alongside — a persistently negative raw value
	// means the measurement is noise-dominated, which the clamp would
	// otherwise hide.
	RunOverheadPct            float64 `json:"run_metrics_overhead_pct"`
	RunOverheadRawPct         float64 `json:"run_metrics_overhead_raw_pct"`
	RunParallelOverheadPct    float64 `json:"run_parallel_metrics_overhead_pct"`
	RunParallelOverheadRawPct float64 `json:"run_parallel_metrics_overhead_raw_pct"`

	ParallelSpeedup float64 `json:"parallel_speedup"`
}

// benchFile is the BENCH_fame.json document.
type benchFile struct {
	GeneratedBy       string  `json:"generated_by"`
	TargetFreqHz      float64 `json:"target_freq_hz"`
	LinkLatencyCycles uint64  `json:"link_latency_cycles"`
	Rounds            int     `json:"rounds"`
	Reps              int     `json:"reps"`
	// Workers is the -workers flag (0 = GOMAXPROCS); GOMAXPROCS records
	// what that default resolved to on the bench host, so speedup numbers
	// can be read against the core count that produced them.
	Workers    int           `json:"workers"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
	// WorkerSweep is the multi-core scaling pass: every (nodes, workers)
	// cell from -worker-sweep × -sweep-nodes, with per-cell effective
	// worker counts and speedup-vs-1-worker.
	WorkerSweep []sweepPoint `json:"worker_sweep,omitempty"`
	// ScaleCurve is the sim-rate-vs-scale pass (the paper's Fig. 9 shape):
	// one sequential measurement per -scale-nodes size; see scalebench.go.
	ScaleCurve []scalePoint `json:"scale_curve,omitempty"`
	// NodeResults covers the per-node compute loop (SoC blades running
	// machine code) with the fast paths on vs off; see nodebench.go.
	NodeResults []nodeBenchResult `json:"node_results,omitempty"`
	// DistResults is the distributed token-plane pass: multi-process
	// sim rate and per-window wire cost vs the v2 fixed-width codec
	// baseline, idle and dense variants; see distbench.go.
	DistResults []distBenchPoint `json:"dist_results,omitempty"`
}

// benchHistoryEntry is one line of BENCH_history.jsonl: a timestamped
// digest of a bench invocation, so the perf trajectory is tracked across
// PRs without diffing full BENCH_fame.json documents.
type benchHistoryEntry struct {
	Time       string             `json:"time"`
	Rounds     int                `json:"rounds"`
	Reps       int                `json:"reps"`
	Workers    int                `json:"workers"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	RunHz      map[string]float64 `json:"run_hz"`
	ParHz      map[string]float64 `json:"run_parallel_hz"`
	Speedup    map[string]float64 `json:"parallel_speedup"`
	// Raw (unclamped) metrics overhead per size, so the history shows when
	// a measurement went noise-negative rather than silently reporting 0.
	RunOverheadRawPct map[string]float64 `json:"run_metrics_overhead_raw_pct,omitempty"`
	ParOverheadRawPct map[string]float64 `json:"run_parallel_metrics_overhead_raw_pct,omitempty"`
	// Node-bench digests, keyed "<workload>_fast" / "<workload>_slow"
	// (MIPS) and "<workload>" (fast-over-slow wall-time speedup).
	NodeMIPS        map[string]float64 `json:"node_mips,omitempty"`
	NodeFastSpeedup map[string]float64 `json:"node_fast_speedup,omitempty"`
	// Worker-sweep digests, keyed "<nodes>n<workers>w" (e.g. "32n4w"):
	// sim rate and speedup vs the same size's 1-worker baseline, plus the
	// effective worker count that produced each cell.
	SweepHz      map[string]float64 `json:"sweep_hz,omitempty"`
	SweepSpeedup map[string]float64 `json:"sweep_speedup,omitempty"`
	SweepEffW    map[string]int     `json:"sweep_effective_workers,omitempty"`
	// Scale-curve digests, keyed by node count: the Fig. 9 trajectory.
	ScaleHz map[string]float64 `json:"scale_hz,omitempty"`
	// Dist-pass digests, keyed by variant ("idle"/"dense"): distributed
	// sim rate, per-window wire bytes, and compression vs the v2 codec.
	DistHz        map[string]float64 `json:"dist_hz,omitempty"`
	DistWireBPW   map[string]float64 `json:"dist_wire_bytes_per_window,omitempty"`
	DistWireRatio map[string]float64 `json:"dist_wire_ratio,omitempty"`
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	nodesList := fs.String("nodes", "2,4,8", "comma-separated rack sizes to measure")
	rounds := fs.Int("rounds", 2048, "link-latency rounds per measurement")
	reps := fs.Int("reps", 5, "repetitions per variant (best wall time wins)")
	latencyUs := fs.Float64("latency-us", 2, "link latency in microseconds")
	workers := fs.Int("workers", 0, "parallel scheduler worker count (0 = GOMAXPROCS)")
	workerSweep := fs.String("worker-sweep", "", "comma-separated worker counts for the multi-core scaling sweep (empty disables it)")
	sweepNodes := fs.String("sweep-nodes", "8,16,32,64", "comma-separated rack sizes for the worker sweep")
	sweepRounds := fs.Int("sweep-rounds", 0, "link-latency rounds per sweep measurement (0 = -rounds)")
	sweepMinSpeedup := fs.String("sweep-min-speedup", "", "scaling gate, e.g. \"2:1.6,4:2.5\": fail unless the sweep's best speedup at W effective workers reaches the bound")
	scaleNodes := fs.String("scale-nodes", "", "comma-separated node counts for the sim-rate-vs-scale pass, e.g. '8,64,256' (empty disables it; 64/256/1024 run as the paper's tree shapes)")
	scaleRounds := fs.Int("scale-rounds", 0, "link-latency rounds per scale measurement (0 = -rounds)")
	scaleReps := fs.Int("scale-reps", 3, "repetitions per scale point (best wall time wins)")
	scaleMinFrac := fs.Float64("scale-min-frac", 0, "Fig. 9 shape gate: fail unless the largest size's sim rate is at least this fraction of the second largest's (0 disables)")
	distNodes := fs.Int("dist-nodes", 0, "node count for the distributed token-plane pass (0 disables it)")
	distProcs := fs.Int("dist-procs", 3, "shard worker processes for the dist pass")
	distHorizon := fs.Uint64("dist-horizon", 16384, "target cycle for the dist pass (multiple of -dist-link)")
	distLink := fs.Uint64("dist-link", 512, "link latency in cycles for the dist pass (must be even)")
	distIdleMinRatio := fs.Float64("dist-idle-min-ratio", 0, "fail unless the idle dist variant's wire ratio vs the v2 codec reaches this (0 disables the gate)")
	distDenseMinRatio := fs.Float64("dist-dense-min-ratio", 0, "fail unless the dense dist variant's wire ratio vs the v2 codec reaches this (0 disables the gate)")
	distMinFrac := fs.Float64("dist-min-frac", 0, "fail unless the dense dist variant's sim rate is at least this fraction of the same spec in-process (0 disables the gate)")
	nodeNodes := fs.Int("node-nodes", 4, "blade count for the per-node compute-loop bench (0 disables it)")
	nodeRounds := fs.Int("node-rounds", 512, "link-latency rounds per node-bench measurement")
	idleMinSpeedup := fs.Float64("idle-min-speedup", 0, "fail unless the idle workload's fast-path speedup reaches this (0 disables the gate)")
	denseMinSpeedup := fs.Float64("dense-min-speedup", 0, "fail unless the dense workload's fast-path speedup reaches this (0 disables the gate)")
	sbMinSpeedup := fs.Float64("sb-min-speedup", 0, "fail unless the dense workload's superblock A-B speedup reaches this (0 disables the gate)")
	maxOverheadPct := fs.Float64("max-overhead-pct", 0, "fail if any size's clamped metrics overhead exceeds this percent (0 disables the gate)")
	out := fs.String("out", "BENCH_fame.json", "output file")
	history := fs.String("history", "", "append a timestamped result line to this JSONL file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering only the measured round loops to this file")
	tracefile := fs.String("trace", "", "write a runtime execution trace covering only the measured round loops to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseFanouts(*nodesList)
	if err != nil {
		return err
	}

	clk := clock.New(clock.DefaultTargetClock)
	doc := benchFile{
		GeneratedBy:       "firesim bench",
		TargetFreqHz:      float64(clock.DefaultTargetClock),
		LinkLatencyCycles: uint64(clk.CyclesInMicros(*latencyUs)),
		Rounds:            *rounds,
		Reps:              *reps,
		Workers:           *workers,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
	}

	table := stats.NewTable("Nodes", "Run", "RunParallel", "Speedup", "EffWorkers", "Metrics overhead")
	for _, n := range sizes {
		r, err := benchOneSize(n, *rounds, *reps, *workers, clk.CyclesInMicros(*latencyUs))
		if err != nil {
			return fmt.Errorf("bench %d nodes: %w", n, err)
		}
		doc.Results = append(doc.Results, r)
		table.AddRow(n,
			clock.Hz(r.Run.SimHz), clock.Hz(r.RunParallel.SimHz),
			fmt.Sprintf("%.2fx", r.ParallelSpeedup),
			r.EffectiveWorkers,
			fmt.Sprintf("%+.1f%% / %+.1f%%", r.RunOverheadPct, r.RunParallelOverheadPct))
	}

	sweepTable := stats.NewTable("Nodes", "Workers", "EffWorkers", "SimHz", "Speedup vs 1w")
	if *workerSweep != "" {
		counts, err := parseFanouts(*workerSweep)
		if err != nil {
			return fmt.Errorf("bench: -worker-sweep: %w", err)
		}
		swSizes, err := parseFanouts(*sweepNodes)
		if err != nil {
			return fmt.Errorf("bench: -sweep-nodes: %w", err)
		}
		swRounds := *sweepRounds
		if swRounds <= 0 {
			swRounds = *rounds
		}
		points, err := benchWorkerSweep(swSizes, counts, swRounds, *reps, clk.CyclesInMicros(*latencyUs))
		if err != nil {
			return err
		}
		doc.WorkerSweep = points
		for _, p := range points {
			sweepTable.AddRow(p.Nodes, p.Workers, p.EffectiveWorkers,
				clock.Hz(p.SimHz), fmt.Sprintf("%.2fx", p.SpeedupVs1W))
		}
	}

	scaleTable := stats.NewTable("Nodes", "Topology", "Switches", "SimHz", "Slowdown")
	if *scaleNodes != "" {
		scSizes, err := parseFanouts(*scaleNodes)
		if err != nil {
			return fmt.Errorf("bench: -scale-nodes: %w", err)
		}
		scRounds := *scaleRounds
		if scRounds <= 0 {
			scRounds = *rounds
		}
		points, err := benchScalePass(scSizes, scRounds, *scaleReps, clk.CyclesInMicros(*latencyUs))
		if err != nil {
			return err
		}
		doc.ScaleCurve = points
		for _, p := range points {
			topoStr := make([]string, len(p.Fanouts))
			for i, f := range p.Fanouts {
				topoStr[i] = fmt.Sprintf("%d", f)
			}
			scaleTable.AddRow(p.Nodes, strings.Join(topoStr, "x"), p.Switches,
				clock.Hz(p.SimHz), fmt.Sprintf("%.0fx", p.Slowdown))
		}
	}

	nodeTable := stats.NewTable("Workload", "Fast", "Slow", "Speedup", "SB speedup", "MIPS fast/slow", "Skipped")
	if *nodeNodes > 0 {
		nodeResults, err := benchNodePass(*nodeNodes, *nodeRounds, *reps, clk.CyclesInMicros(*latencyUs))
		if err != nil {
			return err
		}
		doc.NodeResults = nodeResults
		for _, r := range nodeResults {
			sb := "-"
			if r.FastNoSB != nil {
				sb = fmt.Sprintf("%.2fx", r.SuperblockSpeedup)
			}
			nodeTable.AddRow(r.Workload,
				clock.Hz(r.Fast.SimHz), clock.Hz(r.Slow.SimHz),
				fmt.Sprintf("%.2fx", r.FastSpeedup),
				sb,
				fmt.Sprintf("%.2f / %.2f", r.Fast.MIPS, r.Slow.MIPS),
				fmt.Sprintf("%.1f%%", r.Fast.SkippedPct))
		}
	}

	distTable := stats.NewTable("Variant", "DistHz", "InprocHz", "Frac", "Wire B/win", "v2 B/win", "Ratio")
	if *distNodes > 0 {
		distResults, err := benchDistPass(*distNodes, *distProcs, *distHorizon, *distLink)
		if err != nil {
			return err
		}
		doc.DistResults = distResults
		for _, p := range distResults {
			distTable.AddRow(p.Variant,
				clock.Hz(p.DistHz), clock.Hz(p.InprocHz),
				fmt.Sprintf("%.3f", p.DistFrac),
				fmt.Sprintf("%.1f", p.WireBytesPerWindow),
				fmt.Sprintf("%.1f", p.PrecodecBytesPerWindow),
				fmt.Sprintf("%.2fx", p.WireRatio))
		}
	}

	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if *history != "" {
		if err := appendBenchHistory(*history, &doc); err != nil {
			return err
		}
	}
	fmt.Printf("sim-rate across topology sizes (%d rounds x %d reps, link %.3g us):\n",
		*rounds, *reps, *latencyUs)
	fmt.Print(table.String())
	if len(doc.WorkerSweep) > 0 {
		fmt.Printf("multi-core worker sweep (GOMAXPROCS=%d):\n", doc.GOMAXPROCS)
		fmt.Print(sweepTable.String())
	}
	if len(doc.ScaleCurve) > 0 {
		fmt.Printf("sim-rate vs scale (Fig. 9 curve, sequential scheduler, %d reps):\n", *scaleReps)
		fmt.Print(scaleTable.String())
	}
	if len(doc.NodeResults) > 0 {
		fmt.Printf("per-node compute loop, %d blades x %d rounds, fast paths on vs off:\n",
			*nodeNodes, *nodeRounds)
		fmt.Print(nodeTable.String())
	}
	if len(doc.DistResults) > 0 {
		fmt.Printf("distributed token plane, %d nodes / %d procs to cycle %d (wire vs v2-codec baseline):\n",
			*distNodes, *distProcs, *distHorizon)
		fmt.Print(distTable.String())
	}
	fmt.Printf("wrote %s\n", *out)

	for _, gate := range []struct {
		workload string
		min      float64
	}{
		{"idle", *idleMinSpeedup},
		{"dense", *denseMinSpeedup},
	} {
		if gate.min <= 0 {
			continue
		}
		var got *nodeBenchResult
		for i := range doc.NodeResults {
			if doc.NodeResults[i].Workload == gate.workload {
				got = &doc.NodeResults[i]
			}
		}
		if got == nil {
			return fmt.Errorf("bench: -%s-min-speedup set but the node bench did not run (see -node-nodes)", gate.workload)
		}
		if got.FastSpeedup < gate.min {
			return fmt.Errorf("bench: %s workload fast-path speedup %.2fx below the %.2fx gate",
				gate.workload, got.FastSpeedup, gate.min)
		}
	}
	if *sbMinSpeedup > 0 {
		var got *nodeBenchResult
		for i := range doc.NodeResults {
			if doc.NodeResults[i].Workload == "dense" {
				got = &doc.NodeResults[i]
			}
		}
		if got == nil || got.FastNoSB == nil {
			return fmt.Errorf("bench: -sb-min-speedup set but the dense node bench did not run (see -node-nodes)")
		}
		if got.SuperblockSpeedup < *sbMinSpeedup {
			return fmt.Errorf("bench: dense superblock A-B speedup %.2fx below the %.2fx gate",
				got.SuperblockSpeedup, *sbMinSpeedup)
		}
	}
	if *sweepMinSpeedup != "" {
		if err := checkSweepGate(doc.WorkerSweep, *sweepMinSpeedup); err != nil {
			return err
		}
	}
	if *scaleMinFrac > 0 {
		if err := checkScaleGate(doc.ScaleCurve, *scaleMinFrac); err != nil {
			return err
		}
	}
	if *distIdleMinRatio > 0 || *distDenseMinRatio > 0 || *distMinFrac > 0 {
		if err := checkDistGates(doc.DistResults, *distIdleMinRatio, *distDenseMinRatio, *distMinFrac); err != nil {
			return err
		}
	}
	if *maxOverheadPct > 0 {
		for _, r := range doc.Results {
			if r.RunOverheadPct > *maxOverheadPct || r.RunParallelOverheadPct > *maxOverheadPct {
				return fmt.Errorf("bench: %d-node metrics overhead %.1f%% / %.1f%% exceeds the %.1f%% gate",
					r.Nodes, r.RunOverheadPct, r.RunParallelOverheadPct, *maxOverheadPct)
			}
		}
	}

	// Profiling is a dedicated extra pass so the collectors wrap only the
	// measured round loops (pprof cannot pause/resume into one file, so
	// arming it around the whole bench would bury the schedulers under
	// deployment and JSON noise).
	if *cpuprofile != "" || *tracefile != "" {
		largest := sizes[len(sizes)-1]
		if err := profilePass(largest, *rounds, *workers, clk.CyclesInMicros(*latencyUs), *cpuprofile, *tracefile); err != nil {
			return err
		}
		fmt.Printf("profiled %d-node round loops (cpu=%q trace=%q)\n", largest, *cpuprofile, *tracefile)
	}
	return nil
}

// appendBenchHistory adds one compact line for this invocation to the
// JSONL history file, creating it if needed.
func appendBenchHistory(path string, doc *benchFile) error {
	e := benchHistoryEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Rounds:     doc.Rounds,
		Reps:       doc.Reps,
		Workers:    doc.Workers,
		GOMAXPROCS: doc.GOMAXPROCS,
		RunHz:      map[string]float64{},
		ParHz:      map[string]float64{},
		Speedup:    map[string]float64{},
	}
	for _, r := range doc.Results {
		key := fmt.Sprintf("%d", r.Nodes)
		e.RunHz[key] = r.Run.SimHz
		e.ParHz[key] = r.RunParallel.SimHz
		e.Speedup[key] = r.ParallelSpeedup
		if e.RunOverheadRawPct == nil {
			e.RunOverheadRawPct = map[string]float64{}
			e.ParOverheadRawPct = map[string]float64{}
		}
		e.RunOverheadRawPct[key] = r.RunOverheadRawPct
		e.ParOverheadRawPct[key] = r.RunParallelOverheadRawPct
	}
	if len(doc.WorkerSweep) > 0 {
		e.SweepHz = map[string]float64{}
		e.SweepSpeedup = map[string]float64{}
		e.SweepEffW = map[string]int{}
		for _, p := range doc.WorkerSweep {
			key := fmt.Sprintf("%dn%dw", p.Nodes, p.Workers)
			e.SweepHz[key] = p.SimHz
			e.SweepSpeedup[key] = p.SpeedupVs1W
			e.SweepEffW[key] = p.EffectiveWorkers
		}
	}
	if len(doc.ScaleCurve) > 0 {
		e.ScaleHz = map[string]float64{}
		for _, p := range doc.ScaleCurve {
			e.ScaleHz[fmt.Sprintf("%d", p.Nodes)] = p.SimHz
		}
	}
	if len(doc.DistResults) > 0 {
		e.DistHz = map[string]float64{}
		e.DistWireBPW = map[string]float64{}
		e.DistWireRatio = map[string]float64{}
		for _, p := range doc.DistResults {
			e.DistHz[p.Variant] = p.DistHz
			e.DistWireBPW[p.Variant] = p.WireBytesPerWindow
			e.DistWireRatio[p.Variant] = p.WireRatio
		}
	}
	if len(doc.NodeResults) > 0 {
		e.NodeMIPS = map[string]float64{}
		e.NodeFastSpeedup = map[string]float64{}
		for _, r := range doc.NodeResults {
			e.NodeMIPS[r.Workload+"_fast"] = r.Fast.MIPS
			e.NodeMIPS[r.Workload+"_slow"] = r.Slow.MIPS
			e.NodeFastSpeedup[r.Workload] = r.FastSpeedup
			if r.FastNoSB != nil {
				e.NodeMIPS[r.Workload+"_fast_nosb"] = r.FastNoSB.MIPS
				e.NodeFastSpeedup[r.Workload+"_sb"] = r.SuperblockSpeedup
			}
		}
	}
	line, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}

// benchWorkerSweep measures the multi-core scaling curve: for each rack
// size, the best-of-reps wall time at each requested worker count,
// normalized against the same size's 1-worker baseline (which is measured
// whether or not 1 appears in counts — a speedup needs its denominator).
// Each cell records the runner's effective worker count, so a flat curve
// on a saturated host is attributable.
func benchWorkerSweep(sizes, counts []int, rounds, reps int, linkLatency clock.Cycles) ([]sweepPoint, error) {
	withBase := counts
	for _, w := range counts {
		if w == 1 {
			withBase = nil
			break
		}
	}
	if withBase != nil {
		withBase = append([]int{1}, counts...)
	} else {
		withBase = counts
	}

	var points []sweepPoint
	for _, nodes := range sizes {
		var baseWall int64
		for _, w := range withBase {
			c, _, err := benchDeploy(nodes, rounds*(reps+1), w, linkLatency, true, false)
			if err != nil {
				return nil, fmt.Errorf("sweep %d nodes x %d workers: %w", nodes, w, err)
			}
			step := c.Runner.Step()
			region := clock.Cycles(rounds) * step
			// Same warm-up discipline as benchOneSize: burn one unbilled
			// region so cold caches never land in a measured rate.
			runtime.GC()
			if _, err := c.Runner.Measure(region, clock.DefaultTargetClock, true); err != nil {
				return nil, err
			}
			best := time.Duration(-1)
			for i := 0; i < reps; i++ {
				runtime.GC()
				rate, err := c.Runner.Measure(region, clock.DefaultTargetClock, true)
				if err != nil {
					return nil, fmt.Errorf("sweep %d nodes x %d workers: %w", nodes, w, err)
				}
				if best < 0 || rate.Wall < best {
					best = rate.Wall
				}
			}
			p := sweepPoint{
				Nodes:            nodes,
				Workers:          w,
				EffectiveWorkers: c.Runner.EffectiveWorkers(),
			}
			v := toVariant(region, best)
			p.WallNanos, p.SimHz = v.WallNanos, v.SimHz
			if w == 1 {
				baseWall = p.WallNanos
			}
			if baseWall > 0 && p.WallNanos > 0 {
				p.SpeedupVs1W = float64(baseWall) / float64(p.WallNanos)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// checkSweepGate enforces a "W:min,W:min" scaling gate against the sweep:
// for each entry, the best speedup-vs-1-worker over cells that actually
// ran with W effective workers must reach min. Gating on the effective
// count keeps the gate honest — a host that silently capped the worker
// count fails loudly instead of passing on the baseline's parity.
func checkSweepGate(points []sweepPoint, spec string) error {
	if len(points) == 0 {
		return fmt.Errorf("bench: -sweep-min-speedup set but the worker sweep did not run (see -worker-sweep)")
	}
	for _, entry := range strings.Split(spec, ",") {
		var w int
		var min float64
		if _, err := fmt.Sscanf(strings.TrimSpace(entry), "%d:%f", &w, &min); err != nil {
			return fmt.Errorf("bench: -sweep-min-speedup entry %q: want W:MIN", entry)
		}
		best := -1.0
		for _, p := range points {
			if p.EffectiveWorkers == w && p.SpeedupVs1W > best {
				best = p.SpeedupVs1W
			}
		}
		if best < 0 {
			return fmt.Errorf("bench: sweep gate %d:%.2f: no sweep cell ran with %d effective workers", w, min, w)
		}
		if best < min {
			return fmt.Errorf("bench: sweep speedup at %d workers is %.2fx, below the %.2fx gate", w, best, min)
		}
	}
	return nil
}

// benchDeploy stands up one ping-loaded rack ready to measure: pings
// armed, one warm-up slice already run with the requested scheduler so
// cold caches and first-round batch allocation are never billed to a
// measured rate.
func benchDeploy(nodes, rounds, workers int, linkLatency clock.Cycles, parallel, withMetrics bool) (*core.Cluster, clock.Cycles, error) {
	c, err := core.Deploy(core.Rack("tor0", nodes, core.QuadCore),
		core.DeployConfig{LinkLatency: linkLatency, Workers: workers})
	if err != nil {
		return nil, 0, err
	}
	if withMetrics {
		c.EnableMetrics(obs.NewRegistry("bench"))
	}
	step := c.Runner.Step()
	cycles := clock.Cycles(rounds) * step
	interval := 4 * step
	count := int((cycles+4*step)/interval) + 1
	for i, src := range c.Servers {
		dst := c.Servers[(i+1)%len(c.Servers)]
		src.Ping(0, dst.IP(), count, interval, nil)
	}
	if _, err := c.Runner.Measure(4*step, clock.DefaultTargetClock, parallel); err != nil {
		return nil, 0, err
	}
	return c, cycles, nil
}

// benchOneSize measures one rack size in all four variants, running a
// ring of pings — an idle rack ticks in nanoseconds and would make any
// fixed instrumentation cost look enormous, so the overhead number is
// only meaningful under representative load.
//
// Per scheduler, ONE deployment serves every measurement: base and
// instrumented regions alternate B I B I ... B on the same warm cluster
// (reps instrumented regions, reps+1 base). Fresh-deploy-per-variant
// benchmarking put ~100ms of deployment between the two sides of each
// ratio; on a shared host whose effective frequency drifts by tens of
// percent over such gaps, that drift dwarfed the real instrumentation
// cost. Alternating regions on one cluster makes each comparison
// back-to-back, pairing each instrumented region against the mean of its
// two flanking base regions (linear drift cancels exactly), and the
// median across reps rejects the occasional region a GC pause or
// scheduler preemption inflates. Displayed rates are best-of-regions.
func benchOneSize(nodes, rounds, reps, workers int, linkLatency clock.Cycles) (benchResult, error) {
	res := benchResult{Nodes: nodes}
	measurePair := func(parallel bool) (base, inst benchVariant, overhead, raw float64, err error) {
		regions := 2*reps + 1
		// One extra region's worth of pings covers the unbilled warm-up
		// region below.
		c, _, err := benchDeploy(nodes, rounds*(regions+1), workers, linkLatency, parallel, false)
		if err != nil {
			return base, inst, 0, 0, err
		}
		step := c.Runner.Step()
		region := clock.Cycles(rounds) * step
		res.Cycles = uint64(region)
		// The first region after deployment runs 1.5-2x slower than steady
		// state (cold host caches, lazily allocated batch pools) no matter
		// what the short deploy warm-up does; left in the flank set it
		// poisons every ratio it borders. Burn one full region unbilled so
		// the measured B I B ... B sequence starts warm.
		runtime.GC()
		if _, err := c.Runner.Measure(region, clock.DefaultTargetClock, parallel); err != nil {
			return base, inst, 0, 0, err
		}
		reg := obs.NewRegistry("bench")
		walls := make([]time.Duration, regions)
		bestBase, bestInst := time.Duration(-1), time.Duration(-1)
		for i := 0; i < regions; i++ {
			withMetrics := i%2 == 1
			if withMetrics {
				c.EnableMetrics(reg)
			} else {
				c.EnableMetrics(nil)
			}
			// Collect garbage from the previous region (and, first time
			// round, from deployment) before the clock starts, so a pause
			// from someone else's allocations never lands inside a measured
			// region.
			runtime.GC()
			rate, err := c.Runner.Measure(region, clock.DefaultTargetClock, parallel)
			if err != nil {
				return base, inst, 0, 0, err
			}
			walls[i] = rate.Wall
			if withMetrics {
				if bestInst < 0 || rate.Wall < bestInst {
					bestInst = rate.Wall
				}
			} else if bestBase < 0 || rate.Wall < bestBase {
				bestBase = rate.Wall
			}
		}
		ratios := make([]float64, 0, reps)
		for i := 1; i < regions; i += 2 {
			if flank := float64(walls[i-1]+walls[i+1]) / 2; flank > 0 {
				ratios = append(ratios, float64(walls[i])/flank)
			}
		}
		sort.Float64s(ratios)
		if n := len(ratios); n > 0 {
			med := ratios[n/2]
			if n%2 == 0 {
				med = (ratios[n/2-1] + ratios[n/2]) / 2
			}
			raw = 100 * (med - 1)
		}
		overhead = raw
		if overhead < 0 {
			overhead = 0
		}
		if parallel {
			res.EffectiveWorkers = c.Runner.EffectiveWorkers()
		}
		return toVariant(region, bestBase), toVariant(region, bestInst), overhead, raw, nil
	}

	var err error
	if res.Run, res.RunMetrics, res.RunOverheadPct, res.RunOverheadRawPct, err = measurePair(false); err != nil {
		return res, err
	}
	if res.RunParallel, res.RunParallelMetrics, res.RunParallelOverheadPct, res.RunParallelOverheadRawPct, err = measurePair(true); err != nil {
		return res, err
	}
	if res.RunParallel.WallNanos > 0 {
		res.ParallelSpeedup = float64(res.Run.WallNanos) / float64(res.RunParallel.WallNanos)
	}
	return res, nil
}

// profilePass runs both schedulers once at the given size with the
// collectors from internal/obs armed around only the measured round
// loops: deployment, ping arming and warm-up happen before Start, the
// JSON/teardown after Stop.
func profilePass(nodes, rounds, workers int, linkLatency clock.Cycles, cpuPath, tracePath string) error {
	seq, seqCycles, err := benchDeploy(nodes, rounds, workers, linkLatency, false, false)
	if err != nil {
		return err
	}
	par, parCycles, err := benchDeploy(nodes, rounds, workers, linkLatency, true, false)
	if err != nil {
		return err
	}
	var prof obs.Profiles
	if err := prof.Start(cpuPath, tracePath); err != nil {
		return err
	}
	defer prof.Stop()
	if _, err := seq.Runner.Measure(seqCycles, clock.DefaultTargetClock, false); err != nil {
		return err
	}
	if _, err := par.Runner.Measure(parCycles, clock.DefaultTargetClock, true); err != nil {
		return err
	}
	return nil
}

func toVariant(cycles clock.Cycles, wall time.Duration) benchVariant {
	rate := clock.SimRate{TargetCycles: cycles, Wall: wall, TargetFreq: clock.DefaultTargetClock}
	return benchVariant{
		WallNanos: wall.Nanoseconds(),
		SimHz:     float64(rate.EffectiveHz()),
		Slowdown:  rate.Slowdown(),
	}
}
