// Distributed multi-process simulation: `firesim run-dist` is the
// coordinator — it spawns `firesim shard` worker processes (re-execing
// this same binary), drives them through checkpointed lockstep slices,
// and self-heals crashes, stalls and torn checkpoints by rewinding the
// whole cluster to the last coordinated generation and resharding.
//
//	firesim run-dist -nodes 8 -procs 3 -horizon 16384 -verify
//	firesim run-dist -nodes 8 -procs 3 -chaos 'kill:shard1@4096,tear:sub0' -verify
//	firesim shard    -control 127.0.0.1:9000 -name shard0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/manager"
)

func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	control := fs.String("control", os.Getenv("FIRESIM_SHARD_CONTROL"), "coordinator control address host:port")
	name := fs.String("name", os.Getenv("FIRESIM_SHARD_NAME"), "process name for diagnostics")
	quiet := fs.Bool("quiet", false, "suppress lifecycle log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *control == "" {
		return fmt.Errorf("shard: -control (or FIRESIM_SHARD_CONTROL) is required")
	}
	cfg := manager.ShardConfig{ControlAddr: *control, Name: *name}
	if !*quiet {
		cfg.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, "shard "+format+"\n", a...) }
	}
	return manager.RunShard(cfg)
}

func cmdRunDist(args []string) error {
	fs := flag.NewFlagSet("run-dist", flag.ExitOnError)
	nodes := fs.Int("nodes", 8, "servers on the rack (one partition unit each; ignored with -tree)")
	tree := fs.String("tree", "", "uniform tree fanouts, e.g. '4,8,8' for 256 nodes (overrides -nodes)")
	cutLevel := fs.Int("cut-level", 1, "tree depth to cut partition units at (with -tree; 1 = root downlinks)")
	procs := fs.Int("procs", 3, "shard worker processes")
	horizon := fs.Uint64("horizon", 16384, "target cycle to run to (multiple of -link)")
	ckptEvery := fs.Uint64("ckpt-every", 2048, "coordinated checkpoint interval in cycles (multiple of -link)")
	link := fs.Uint64("link", 512, "link latency in cycles (must be even; partitions step at link/2)")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	parallel := fs.Bool("parallel", false, "use the worker-pool scheduler inside every process")
	workers := fs.Int("workers", 3, "workers per process when -parallel")
	chaosSpec := fs.String("chaos", "", "failure injection, e.g. 'kill:shard1@4096,stall:shard2@8192+2500,tear:sub0'")
	respawns := fs.Int("respawns", 0, "replacement processes allowed before re-packing onto survivors")
	maxRecoveries := fs.Int("max-recoveries", 5, "failures to heal before giving up")
	verify := fs.Bool("verify", false, "re-run in-process and check bit-identity component by component")
	dir := fs.String("dir", "", "checkpoint directory (default: a temp dir, removed on success)")
	quiet := fs.Bool("quiet", false, "suppress coordinator log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dcfg := manager.DeployConfig{LinkLatency: clock.Cycles(*link), Seed: *seed}
	var spec manager.ClusterSpec
	var err error
	if *tree != "" {
		fanouts, ferr := parseFanouts(*tree)
		if ferr != nil {
			return ferr
		}
		spec, err = manager.TreeSpec(fanouts, manager.SingleCore, dcfg, *cutLevel)
		total := 1
		for _, f := range fanouts {
			total *= f
		}
		*nodes = total
	} else {
		spec, err = manager.RackSpec(*nodes, dcfg)
	}
	if err != nil {
		return err
	}
	spec.Parallel = *parallel
	if *parallel {
		spec.Workers = *workers
	}
	// A paced stream ring: serializable (the generator is part of node
	// checkpoints) and every frame crosses the partition boundary.
	spec.Workload = &manager.WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: 1, StopAt: *horizon}

	chaos, err := faults.ParseChaos(*chaosSpec)
	if err != nil {
		return err
	}
	baseDir := *dir
	if baseDir == "" {
		baseDir, err = os.MkdirTemp("", "firesim-dist-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(baseDir)
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	start := time.Now()
	report, err := manager.RunDistributed(manager.CoordinatorConfig{
		Spec:          spec,
		Procs:         *procs,
		BaseDir:       baseDir,
		CkptEvery:     *ckptEvery,
		Horizon:       *horizon,
		MaxRecoveries: *maxRecoveries,
		RespawnBudget: *respawns,
		Chaos:         chaos,
		Spawn: func(name, controlAddr string) *exec.Cmd {
			cmd := exec.Command(self, "shard", "-control", controlAddr, "-name", name, "-quiet")
			cmd.Stderr = os.Stderr
			return cmd
		},
		Log: logf,
	})
	if err != nil {
		return err
	}

	fmt.Printf("run-dist: %d nodes / %d procs to cycle %d in %s\n", *nodes, report.FinalProcs, report.Cycle, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  epochs %d, recoveries %d, combined state hash %016x\n", report.Epochs, report.Recoveries, report.Combined)

	if *verify {
		ref, err := manager.ReferenceHashes(spec, *horizon)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		diffs := manager.DiffHashes(report.Hashes, ref)
		for _, d := range diffs {
			fmt.Printf("  MISMATCH %s\n", d)
		}
		if len(diffs) > 0 || report.Combined != manager.CombineHashes(ref) {
			return fmt.Errorf("distributed run is NOT bit-identical to the in-process reference (%d mismatching components)", len(diffs))
		}
		fmt.Printf("  verify: bit-identical to the in-process reference (%d components)\n", len(ref))
	}
	return nil
}
