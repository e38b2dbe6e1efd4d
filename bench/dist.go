package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/manager"
)

const (
	// distProcs is the shard process count of every distributed workload.
	distProcs = 2
	// distReps is how many fresh (short run, long run) pairs a distributed
	// measurement is the median of.
	distReps = regions
	// distShortWindows is the short run's horizon in token windows. It only
	// has to be long enough to finish set-up and tear-down honestly; what it
	// costs beyond its horizon is setup_s.
	distShortWindows = 64
)

// shardMain is `bench shard`: the body of one shard worker process, so
// distributed workloads need no other binary than the harness itself.
func shardMain(args []string) int {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	control := fs.String("control", "", "coordinator control address host:port")
	name := fs.String("name", "", "process name")
	usageFile := fs.String("usage", "", "write this process's peak RSS (MiB) and CPU seconds here on shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := manager.RunShard(manager.ShardConfig{ControlAddr: *control, Name: *name})
	if *usageFile != "" {
		// First thing after the shutdown frame: the coordinator kills
		// whatever is still alive 50 ms later.
		u := selfUsage()
		os.WriteFile(*usageFile, []byte(fmt.Sprintf("%g %g\n", u.rssMiB, u.cpu)), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench shard:", err)
		return 1
	}
	return 0
}

// distPlan is a distributed workload's pinned shape for one -seconds.
type distPlan struct {
	spec   manager.ClusterSpec
	step   uint64 // token window: half a link latency
	hShort uint64
	hLong  uint64
	ckpt   uint64 // checkpoint interval in cycles, 0 = once at the horizon
	want   map[uint64]uint64
}

func (w *workload) distPlan(seed uint64, seconds float64) (distPlan, error) {
	spec, err := streamSpec(seed, w.gbps)
	if err != nil {
		return distPlan{}, err
	}
	p := distPlan{spec: spec, step: spec.LinkLatency / 2, want: map[uint64]uint64{}}
	p.hShort = distShortWindows * p.step
	// Horizons are whole checkpoint intervals (or link latencies), and the
	// long run is at least twice the short one so the difference is real.
	quantum := spec.LinkLatency
	if w.ckptWindows > 0 {
		p.ckpt = w.ckptWindows * p.step
		quantum = p.ckpt
	}
	p.hLong = uint64(w.hz*seconds/distReps) / quantum * quantum
	if p.hLong < 2*p.hShort {
		p.hLong = 2 * p.hShort
	}
	return p, nil
}

// distRun is one RunDistributed call as the harness saw it.
type distRun struct {
	report *manager.DistReport
	wall   time.Duration
	// spawnToHello is the time from the first shard spawn to the last
	// adoption, read off the coordinator's own log lines.
	spawnToHello time.Duration
	shards       usage // the shard processes together: CPU and peak RSS summed
}

// digest is the distributed form of the target digest: the shards'
// counters are out of reach, the combined state hash covers them.
func (d distRun) digest() string {
	return fmt.Sprintf("%016x@%d", d.report.Combined, d.report.Cycle)
}

// runDistributed runs the plan's spec to horizon over real shard
// processes (this binary re-executed as `bench shard`) and waits until
// every one of them is gone.
func runDistributed(p distPlan, horizon uint64, outDir string) (distRun, error) {
	var d distRun
	self, err := os.Executable()
	if err != nil {
		return d, err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return d, err
	}
	defer os.RemoveAll(dir)

	ckpt := p.ckpt
	if ckpt == 0 {
		ckpt = horizon
	}
	var mu sync.Mutex
	var cmds []*exec.Cmd
	var usageFiles []string
	var firstSpawn, lastAdopt time.Time
	t0 := time.Now()
	d.report, err = manager.RunDistributed(manager.CoordinatorConfig{
		Spec:      p.spec,
		Procs:     distProcs,
		BaseDir:   dir,
		CkptEvery: ckpt,
		Horizon:   horizon,
		Spawn: func(name, controlAddr string) *exec.Cmd {
			uf := filepath.Join(dir, name+".usage")
			cmd := exec.Command(self, "shard", "-control", controlAddr, "-name", name, "-usage", uf)
			cmd.Stderr = os.Stderr
			mu.Lock()
			cmds = append(cmds, cmd)
			usageFiles = append(usageFiles, uf)
			mu.Unlock()
			return cmd
		},
		Log: func(format string, _ ...any) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case strings.Contains(format, "spawned") && firstSpawn.IsZero():
				firstSpawn = time.Now()
			case strings.Contains(format, "adopted"):
				lastAdopt = time.Now()
			}
		},
	})
	d.wall = time.Since(t0)
	if werr := awaitExit(cmds); err == nil {
		err = werr
	}
	if err != nil {
		return d, err
	}
	if d.report.Recoveries != 0 {
		return d, fmt.Errorf("distributed run needed %d recoveries; a healed run is not a measurement", d.report.Recoveries)
	}
	if !firstSpawn.IsZero() && lastAdopt.After(firstSpawn) {
		d.spawnToHello = lastAdopt.Sub(firstSpawn)
	}
	for _, uf := range usageFiles {
		var u usage
		data, err := os.ReadFile(uf)
		if err == nil {
			_, err = fmt.Sscan(string(data), &u.rssMiB, &u.cpu)
		}
		if err != nil {
			return d, fmt.Errorf("shard usage report: %w", err)
		}
		d.shards.rssMiB += u.rssMiB
		d.shards.cpu += u.cpu
	}
	return d, nil
}

// awaitExit waits until every spawned shard has exited and been reaped.
// The coordinator owns each Cmd's Wait, so the harness can only watch the
// pid: signal 0 keeps succeeding on a zombie and fails once it is reaped.
func awaitExit(cmds []*exec.Cmd) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, cmd := range cmds {
		if cmd.Process == nil {
			continue
		}
		for syscall.Kill(cmd.Process.Pid, 0) == nil {
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				return fmt.Errorf("shard pid %d still running 10 s after the coordinator returned", cmd.Process.Pid)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// usage is what a process cost the host.
type usage struct {
	rssMiB float64 // peak resident set
	cpu    float64 // user+sys seconds
}

// selfUsage reads this process's own cost. The peak resident set is
// VmHWM, not getrusage's ru_maxrss: that one survives exec, so under
// `go run` (and in a shard spawned by the harness) it starts at the
// parent's size instead of zero.
func selfUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		u.cpu = tv(ru.Utime) + tv(ru.Stime)
		u.rssMiB = float64(ru.Maxrss) / 1024
	}
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		if i := strings.Index(string(data), "VmHWM:"); i >= 0 {
			var kib float64
			if _, err := fmt.Sscan(string(data[i+len("VmHWM:"):]), &kib); err == nil {
				u.rssMiB = kib / 1024
			}
		}
	}
	return u
}

// reference returns the combined state hash an in-process run of the
// plan's spec reaches at horizon h, computed once per horizon.
func (p *distPlan) reference(h uint64) (uint64, error) {
	if v, ok := p.want[h]; ok {
		return v, nil
	}
	ref, err := manager.ReferenceHashes(p.spec, h)
	if err != nil {
		return 0, fmt.Errorf("in-process reference to %d: %w", h, err)
	}
	p.want[h] = manager.CombineHashes(ref)
	return p.want[h], nil
}

// distPair runs one fresh (short, long) pair through RunDistributed,
// checks both against the in-process reference and returns the
// steady-state rate, the fixed cost and the long run.
func distPair(p *distPlan, opt options, res *result) (rate, setup float64, long distRun, err error) {
	var walls [2]float64
	for i, h := range []uint64{p.hShort, p.hLong} {
		d, err := runDistributed(*p, h, opt.outDir)
		res.op(err)
		if err != nil {
			return 0, 0, d, err
		}
		want, err := p.reference(h)
		if err != nil {
			return 0, 0, d, err
		}
		problem := ""
		if d.report.Combined != want {
			problem = fmt.Sprintf("combined hash %016x at %d, in-process reference %016x", d.report.Combined, h, want)
		}
		res.check("bit-identity", problem)
		walls[i], long = d.wall.Seconds(), d
	}
	rate, setup, ok := twoHorizon(p.hShort, p.hLong, walls[0], walls[1])
	if !ok {
		return 0, 0, long, fmt.Errorf("long run (%.3f s) not slower than short run (%.3f s)", walls[1], walls[0])
	}
	return rate, setup, long, nil
}

// runDist measures one distributed workload with tracing off.
func runDist(w *workload, opt options, res *result) error {
	p, err := w.distPlan(opt.seed, opt.seconds)
	if err != nil {
		return err
	}
	var rates, setups []float64
	for rep := 0; rep < distReps; rep++ {
		rate, setup, long, err := distPair(&p, opt, res)
		if err != nil {
			return err
		}
		rates = append(rates, rate)
		setups = append(setups, setup)
		if long.shards.rssMiB > res.shardRSSMiB {
			res.shardRSSMiB = long.shards.rssMiB
		}
		res.Digest = long.digest()
	}
	res.sample("sim_rate_hz", "Hz", rates)
	res.sample("setup_s", "s", setups)
	return nil
}
