// distributed splits one cycle-exact simulation across several simulator
// processes, the way FireSim spans EC2 instances — and then survives a
// host failure mid-run. The coordinator owns the root switch and spawns
// shard worker processes (re-execing this binary with the "shard" arg),
// each hosting a slice of the cluster behind a TCP token bridge. A chaos
// schedule SIGKILLs one shard partway through; the coordinator detects
// the death, rewinds every process to the last coordinated checkpoint,
// re-packs the lost nodes onto the survivors, and finishes the run —
// bit-identical, component for component, to an undisturbed
// single-process simulation of the same target.
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/manager"
)

const (
	nodes     = 6
	procs     = 3
	linkLat   = 512
	horizon   = 16384
	ckptEvery = 2048
)

func main() {
	// Shard mode: this same binary, re-exec'd by the coordinator below.
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		err := manager.RunShard(manager.ShardConfig{
			ControlAddr: os.Getenv("FIRESIM_SHARD_CONTROL"),
			Name:        os.Getenv("FIRESIM_SHARD_NAME"),
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	spec, err := manager.RackSpec(nodes, manager.DeployConfig{LinkLatency: linkLat, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	// Every node streams paced frames to its ring neighbour, so every
	// checkpoint interval moves traffic across every partition boundary.
	spec.Workload = &manager.WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: 1, StopAt: horizon}

	// The chaos schedule: SIGKILL shard1 once it passes cycle 6144. With
	// no respawn budget its nodes are re-packed onto the two survivors.
	chaos, err := faults.ParseChaos("kill:shard1@6144")
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "firesim-example-dist-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("coordinator: %d nodes across %d shard processes, SIGKILL of shard1 scheduled at cycle 6144\n\n", nodes, procs)
	report, err := manager.RunDistributed(manager.CoordinatorConfig{
		Spec:          spec,
		Procs:         procs,
		BaseDir:       dir,
		CkptEvery:     ckptEvery,
		Horizon:       horizon,
		MaxRecoveries: 3,
		Chaos:         chaos,
		Spawn: func(name, controlAddr string) *exec.Cmd {
			cmd := exec.Command(self, "shard")
			cmd.Env = append(os.Environ(),
				"FIRESIM_SHARD_CONTROL="+controlAddr,
				"FIRESIM_SHARD_NAME="+name)
			return cmd
		},
		Log: func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nrun reached cycle %d with %d surviving process(es), healing %d failure(s) over %d epoch(s)\n",
		report.Cycle, report.FinalProcs, report.Recoveries, report.Epochs)

	// The proof: an undisturbed single-process run of the same target.
	ref, err := manager.ReferenceHashes(spec, horizon)
	if err != nil {
		log.Fatal(err)
	}
	if diffs := manager.DiffHashes(report.Hashes, ref); len(diffs) > 0 {
		log.Fatalf("components diverged from the reference:\n  %s", strings.Join(diffs, "\n  "))
	}
	if report.Combined != manager.CombineHashes(ref) {
		log.Fatal("combined hash diverged")
	}
	clk := clock.New(clock.DefaultTargetClock)
	fmt.Printf("\nall %d components bit-identical to the undisturbed single-process run\n", len(ref))
	fmt.Printf("(%d target cycles ≈ %.1f us of target time, killed and healed mid-flight)\n",
		report.Cycle, clk.Micros(clock.Cycles(report.Cycle)))
}
