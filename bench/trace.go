package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/hostplatform"
	"repro/internal/manager"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// layerMetrics is every per-layer metric the traced pass reports, with
// its unit. A metric that does not apply to a workload (transport on an
// in-process rack, riscv on softstack nodes) is reported as 0, so every
// workload prints the same names.
var layerMetrics = []struct{ name, unit string }{
	{"soc.tick_ns_per_window", "ns"},
	{"riscv.mips", "MIPS"},
	{"riscv.instret", "count"},
	{"riscv.tier_mips.percycle", "MIPS"},
	{"riscv.tier_mips.predecode", "MIPS"},
	{"riscv.tier_mips.superblock", "MIPS"},
	{"softstack.tick_ns_per_window", "ns"},
	{"softstack.frames_tx", "count"},
	{"softstack.frames_rx", "count"},
	{"switchmodel.tick_ns_per_window", "ns"},
	{"switchmodel.flits", "count"},
	{"switchmodel.drops", "count"},
	{"fame.self_ns_per_window", "ns"},
	{"fame.ticks", "count"},
	{"fame.seq_hz", "Hz"},
	{"fame.pool_hz", "Hz"},
	{"fame.mux_hz", "Hz"},
	{"transport.exchange_ns_per_window", "ns"},
	{"transport.wire_bytes_per_window", "B"},
	{"transport.precodec_ratio", "ratio"},
	{"manager.control_ns_per_window", "ns"},
	{"manager.slice_ms", "ms"},
	{"manager.setup_spawn_hello_ms", "ms"},
	{"manager.setup_other_ms", "ms"},
	{"manager.shard_cpu_s", "s"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"window_us_p50", "us"},
	{"window_us_p99", "us"},
	{"traced_wall_ns_per_window", "ns"},
	{"unattributed_ns_per_window", "ns"},
	{"trace_overhead_pct", "%"},
}

// zeroLayerMetrics gives every per-layer metric its not-applicable value.
func (r *result) zeroLayerMetrics() {
	for _, m := range layerMetrics {
		r.set(m.name, m.unit, 0)
	}
}

// setLayer overwrites one per-layer metric, keeping its declared unit.
func (r *result) setLayer(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}

// attribution turns a merged trace into the per-window layer metrics.
// Times are means over the threads that ran endpoints, so they sum to the
// traced wall time of one window.
func (r *result) attribution(t trace, windows int64, tracedWall, untracedWall time.Duration, untracedWindows int64) {
	per := func(l layer) float64 { return float64(t.ns[l]) / float64(t.threads) / float64(windows) }
	r.setLayer("soc.tick_ns_per_window", per(layerSoc))
	r.setLayer("softstack.tick_ns_per_window", per(layerSoftstack))
	r.setLayer("switchmodel.tick_ns_per_window", per(layerSwitch))
	r.setLayer("transport.exchange_ns_per_window", per(layerTransport))
	r.setLayer("fame.self_ns_per_window", per(layerFame))
	r.setLayer("unattributed_ns_per_window", per(layerHook))
	r.setLayer("fame.ticks", float64(t.ticks))
	tw := float64(tracedWall.Nanoseconds()) / float64(windows)
	r.setLayer("traced_wall_ns_per_window", tw)
	if uw := float64(untracedWall.Nanoseconds()) / float64(untracedWindows); uw > 0 {
		r.setLayer("trace_overhead_pct", 100*(tw/uw-1))
	}
	us := make([]float64, len(t.windowNs))
	for i, v := range t.windowNs {
		us[i] = v / 1e3
	}
	r.setLayer("window_us_p50", percentile(us, 50))
	r.setLayer("window_us_p99", percentile(us, 99))
	if p, ok := highestPercentile(len(us)); !ok || p < 99 {
		r.Notes = append(r.Notes, fmt.Sprintf("window_us_p99 rests on %d windows, fewer than ten beyond it", len(us)))
	}
}

// traceFile is the JSON written to <out>/trace.<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Threads x WallNs is the thread time the layer times add up to.
	Threads int              `json:"threads"`
	Windows int64            `json:"windows"`
	WallNs  int64            `json:"wall_ns"`
	LayerNs map[string]int64 `json:"layer_ns"`
	// Parts breaks LayerNs down by partition (distributed workloads).
	Parts map[string]map[string]int64 `json:"partition_layer_ns,omitempty"`
	// Spans holds the run (id 1) and, for one window in 1024, the window
	// and every endpoint tick inside it, each naming its parent.
	Spans []span `json:"spans"`
}

func layerMap(t trace) map[string]int64 {
	m := make(map[string]int64, numLayers)
	for l, v := range t.ns {
		m[layerNames[l]] = v
	}
	return m
}

func writeTrace(opt options, f traceFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.outDir, "trace."+f.Workload+".json"), data, 0o644)
}

// traceInproc is the traced pass of an in-process workload: the same
// schedule as the untraced pass, to the same horizon and so the same
// digest and counters, with the tracer installed on every second region.
// The untraced regions in between are the baseline trace_overhead_pct is
// taken against.
func traceInproc(w *workload, opt options, res *result) error {
	res.zeroLayerMetrics()
	r, err := w.build(opt.seed, false)
	if err != nil {
		return err
	}
	sched := w.schedule(r.runner.Step(), opt.seconds)
	r.chunk = sched.chunk
	if _, err := r.advance(sched.warm, nil); err != nil {
		return err
	}
	before := r.counters()

	var merged trace
	var wallT, wallU time.Duration
	var nT, nU int64
	windows := int64(sched.region / sched.step)
	for i := 0; i < regions; i++ {
		if i%2 == 0 {
			wall, err := r.region(sched.region, nil)
			res.op(err)
			wallU += wall
			nU += windows
			continue
		}
		var pause func()
		var finish func(time.Duration) trace
		if r.parallel {
			pt := newPoolTracer(r.layers, r.anchor)
			r.runner.SetInjector(pt)
			pause = pt.pause
			finish = func(wall time.Duration) trace { return pt.finish(wall, r.runner.EffectiveWorkers()) }
		} else {
			st := newSeqTracer(r.layers)
			r.runner.SetInjector(st)
			pause, finish = st.pause, st.finish
		}
		wall, err := r.region(sched.region, pause)
		r.runner.SetInjector(nil)
		res.op(err)
		if err != nil {
			continue
		}
		merged.add(finish(wall))
		wallT += wall
		nT += windows
	}
	if nT == 0 || nU == 0 {
		return fmt.Errorf("no traced or no untraced region completed")
	}
	res.attribution(merged, nT, wallT, wallU, nU)

	final, err := r.state()
	res.check("state at horizon", errText(err))
	if err == nil {
		res.Digest = final.digest(r.runner.Cycle())
	}
	k := final.counters
	res.setLayer("riscv.instret", float64(k.Instret))
	res.setLayer("riscv.mips", float64(k.Instret-before.Instret)/(wallT+wallU).Seconds()/1e6)
	res.setLayer("softstack.frames_tx", float64(k.FramesTx))
	res.setLayer("softstack.frames_rx", float64(k.FramesRx))
	res.setLayer("switchmodel.flits", float64(k.Flits))
	res.setLayer("switchmodel.drops", float64(k.Drops))

	spans := append([]span{{ID: 1, Name: "run " + w.name, Start: 0, End: wallT.Nanoseconds()}}, merged.spans...)
	if err := writeTrace(opt, traceFile{
		Workload: w.name, Seed: opt.seed, Threads: merged.threads, Windows: nT,
		WallNs: wallT.Nanoseconds(), LayerNs: layerMap(merged), Spans: spans,
	}); err != nil {
		return err
	}

	// Past the common horizon: the same cluster under each scheduler, and
	// the same rack at each interpreter tier.
	if r.parallel {
		if err := schedulerRates(r, sched.region/2, res); err != nil {
			return err
		}
	}
	if r.tier != nil {
		if err := tierRates(r, sched, res); err != nil {
			return err
		}
	}
	return nil
}

// schedulerRates measures one more region of the same warm cluster under
// the sequential, pool and multiplexed schedulers.
func schedulerRates(r *rig, cycles clock.Cycles, res *result) error {
	cycles -= cycles % r.runner.Step()
	for _, m := range []struct {
		metric        string
		parallel, mux bool
	}{{"fame.seq_hz", false, false}, {"fame.pool_hz", true, false}, {"fame.mux_hz", true, true}} {
		r.runner.SetMultiplexed(m.mux)
		r.parallel = m.parallel
		wall, err := r.region(cycles, nil)
		res.op(err)
		if err != nil {
			return err
		}
		res.setLayer(m.metric, float64(cycles)/wall.Seconds())
	}
	r.runner.SetMultiplexed(false)
	return nil
}

// tierRates runs a fresh rack at each interpreter tier for a tenth of a
// region (the per-cycle tier is several times slower than the product)
// and reports aggregate MIPS.
func tierRates(r *rig, sched schedule, res *result) error {
	cycles := sched.region / 10
	cycles -= cycles % sched.step
	if cycles < sched.step {
		cycles = sched.step
	}
	for _, t := range []struct {
		metric string
		tier   socTier
	}{{"riscv.tier_mips.percycle", tierPerCycle}, {"riscv.tier_mips.predecode", tierPredecode}, {"riscv.tier_mips.superblock", tierSuperblock}} {
		tr, err := r.tier(t.tier)
		if err != nil {
			return err
		}
		if err := tr.runner.Run(8 * sched.step); err != nil {
			return err
		}
		before := tr.counters().Instret
		wall, err := tr.region(cycles, nil)
		res.op(err)
		if err != nil {
			return err
		}
		res.setLayer(t.metric, float64(tr.counters().Instret-before)/wall.Seconds()/1e6)
	}
	return nil
}

// partSet is a distributed cluster driven from inside the harness: the
// root partition and one partition per would-be shard process, joined by
// real bridges over loopback TCP, each advanced window by window from its
// own goroutine exactly as the coordinator and the shards advance theirs.
type partSet struct {
	names []string
	parts []*manager.Partition
	ln    net.Listener
}

func buildParts(spec manager.ClusterSpec) (*partSet, error) {
	root, _, err := spec.Topology()
	if err != nil {
		return nil, err
	}
	units := len(manager.CutUnits(root, spec.CutLevel))
	weights := make([]int, units)
	for i := range weights {
		weights[i] = 1 // RackSpec: every unit is one server
	}
	const timeout = 30 * time.Second
	ps := &partSet{}
	rp, err := manager.BuildPartition(spec, nil, timeout)
	if err != nil {
		return nil, err
	}
	ps.names, ps.parts = []string{"root"}, []*manager.Partition{rp}
	for i, pack := range hostplatform.PackUnits(weights, distProcs) {
		sp, err := manager.BuildPartition(spec, pack, timeout)
		if err != nil {
			return nil, err
		}
		ps.names = append(ps.names, fmt.Sprintf("shard%d", i))
		ps.parts = append(ps.parts, sp)
	}
	if ps.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	for _, sp := range ps.parts[1:] {
		for _, u := range sp.Units {
			conn, err := transport.DialToken(ps.ln.Addr().String(), uint32(u), 1, 5*time.Second)
			if err != nil {
				ps.close()
				return nil, err
			}
			if err := sp.AttachBridge(u, conn, 0); err != nil {
				conn.Close()
				ps.close()
				return nil, err
			}
		}
	}
	for i := 0; i < units; i++ {
		conn, err := ps.ln.Accept()
		if err != nil {
			ps.close()
			return nil, err
		}
		u, _, err := transport.ReadTokenPreamble(conn, 5*time.Second)
		if err == nil {
			err = rp.AttachBridge(int(u), conn, 0)
		}
		if err != nil {
			conn.Close()
			ps.close()
			return nil, err
		}
	}
	return ps, nil
}

func (ps *partSet) close() {
	for _, p := range ps.parts {
		p.CloseBridges()
	}
	ps.ln.Close()
}

func (ps *partSet) layers(i int) map[string]layer {
	p := ps.parts[i]
	m := make(map[string]layer)
	for _, n := range p.Servers {
		m[n.Name()] = layerSoftstack
	}
	for _, sw := range p.Switches {
		m[sw.Name()] = layerSwitch
	}
	for _, br := range p.Bridges {
		m[br.Name()] = layerTransport
	}
	return m
}

// run advances every partition by windows token windows, one RunSlice
// per window, and returns the wall time until the last one finished. With
// tracing on, each partition's runner gets its own sequential tracer.
func (ps *partSet) run(windows int, traced bool) (time.Duration, []trace, error) {
	tracers := make([]*seqTracer, len(ps.parts))
	walls := make([]time.Duration, len(ps.parts))
	errs := make([]error, len(ps.parts))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, p := range ps.parts {
		var inj fame.Injector
		if traced {
			tracers[i] = newSeqTracer(ps.layers(i))
			inj = tracers[i]
		}
		p.Runner.SetInjector(inj)
		wg.Add(1)
		go func(i int, p *manager.Partition) {
			defer wg.Done()
			start := time.Now()
			for n := 0; n < windows && errs[i] == nil; n++ {
				errs[i] = p.RunSlice(p.Step)
			}
			walls[i] = time.Since(start)
			if errs[i] != nil {
				// Unblock the peers: they are waiting on this side's tokens.
				ps.close()
			}
		}(i, p)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return wall, nil, err
		}
	}
	var traces []trace
	if traced {
		for i, p := range ps.parts {
			p.Runner.SetInjector(nil)
			traces = append(traces, tracers[i].finish(walls[i]))
		}
	}
	return wall, traces, nil
}

// hashes merges every partition's component hashes.
func (ps *partSet) hashes() (map[string]uint64, error) {
	var maps []map[string]uint64
	for _, p := range ps.parts {
		h, err := p.UnitHashes()
		if err != nil {
			return nil, err
		}
		maps = append(maps, h)
	}
	return manager.MergeHashes(maps...)
}

// saveTimes persists every unit of every partition reps times through a
// real snapshot.Store and returns the per-file times (ms) and sizes (B).
func (ps *partSet) saveTimes(dir string, reps int) (ms, bytes []float64, err error) {
	for i, p := range ps.parts {
		units := p.Units
		if p.IsRoot {
			units = []int{manager.RootUnit}
		}
		for _, u := range units {
			st, err := snapshot.NewStore(filepath.Join(dir, ps.names[i], manager.UnitName(u)), 0)
			if err != nil {
				return nil, nil, err
			}
			for rep := 0; rep < reps; rep++ {
				var n int64
				t0 := time.Now()
				err := st.Save(uint64(p.Runner.Cycle()), func(w io.Writer) error {
					return p.SaveUnit(io.MultiWriter(w, writerFunc(func(b []byte) { n += int64(len(b)) })), u)
				})
				if err != nil {
					return nil, nil, err
				}
				ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
				bytes = append(bytes, float64(n))
			}
		}
	}
	return ms, bytes, nil
}

// writerFunc adapts a byte observer to io.Writer.
type writerFunc func([]byte)

func (f writerFunc) Write(p []byte) (int, error) { f(p); return len(p), nil }

// traceDist is the traced pass of a distributed workload. The layers
// inside the processes are traced on harness-driven partitions (no
// coordinator, no control plane, no checkpoints); what RunDistributed
// costs per window beyond that is the manager's share.
func traceDist(w *workload, opt options, res *result) error {
	res.zeroLayerMetrics()
	p, err := w.distPlan(opt.seed, opt.seconds)
	if err != nil {
		return err
	}

	ps, err := buildParts(p.spec)
	if err != nil {
		return err
	}
	defer ps.close()
	windows := int(p.hLong / p.step)
	if _, _, err := ps.run(distShortWindows, false); err != nil {
		return err
	}
	wallU, _, err := ps.run(windows, false)
	res.op(err)
	if err != nil {
		return err
	}
	wallT, traces, err := ps.run(windows, true)
	res.op(err)
	if err != nil {
		return err
	}
	var merged trace
	parts := make(map[string]map[string]int64)
	for i, t := range traces {
		merged.add(t)
		parts[ps.names[i]] = layerMap(t)
	}
	merged.threads = len(traces)
	merged.windowNs, merged.spans = traces[0].windowNs, traces[0].spans // the root's view
	res.attribution(merged, int64(windows), wallT, wallU, int64(windows))

	// Bit-identity of the harness-driven cluster itself.
	cycles := uint64(ps.parts[0].Runner.Cycle())
	got, err := ps.hashes()
	if err == nil {
		var ref map[string]uint64
		if ref, err = manager.ReferenceHashes(p.spec, cycles); err == nil {
			res.check("harness-driven partitions", state{hashes: ref}.diff(state{hashes: got}))
		}
	}
	if err != nil {
		res.check("harness-driven partitions", err.Error())
	}

	var sent, precodec uint64
	for _, br := range ps.parts[0].Bridges {
		sent += br.WireBytesSent()
		precodec += br.PrecodecBytes()
	}
	totalWindows := cycles / p.step
	res.setLayer("transport.wire_bytes_per_window", float64(sent)/float64(totalWindows))
	if sent > 0 {
		res.setLayer("transport.precodec_ratio", float64(precodec)/float64(sent))
	}

	dir, err := os.MkdirTemp(opt.outDir, "save-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ms, bytes, err := ps.saveTimes(dir, 5)
	res.op(err)
	if err == nil {
		res.setLayer("snapshot.save_ms", median(ms))
		res.setLayer("snapshot.bytes", median(bytes))
	}
	ps.close()

	spans := append([]span{{ID: 1, Name: "run " + w.name + " (root partition)", Start: 0, End: wallT.Nanoseconds()}}, merged.spans...)
	if err := writeTrace(opt, traceFile{
		Workload: w.name, Seed: opt.seed, Threads: merged.threads, Windows: int64(windows),
		WallNs: wallT.Nanoseconds(), LayerNs: layerMap(merged), Parts: parts, Spans: spans,
	}); err != nil {
		return err
	}

	// The same spec through the real coordinator and shard processes, as
	// the untraced pass runs it.
	rate, setup, long, err := distPair(&p, opt, res)
	if err != nil {
		return err
	}
	res.Digest = long.digest()
	res.setLayer("manager.setup_spawn_hello_ms", float64(long.spawnToHello.Nanoseconds())/1e6)
	res.setLayer("manager.setup_other_ms", setup*1e3-float64(long.spawnToHello.Nanoseconds())/1e6)
	res.setLayer("manager.shard_cpu_s", long.shards.cpu)
	plainRate := rate
	if p.ckpt != 0 {
		// Without the periodic checkpoints, to price a slice and to compare
		// like with like below.
		plain := p
		plain.ckpt = 0
		if plainRate, _, _, err = distPair(&plain, opt, res); err != nil {
			return err
		}
		res.setLayer("manager.slice_ms", (1/rate-1/plainRate)*float64(p.ckpt)*1e3)
	}
	res.setLayer("manager.control_ns_per_window", float64(p.step)/plainRate*1e9-float64(wallU.Nanoseconds())/float64(windows))
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
