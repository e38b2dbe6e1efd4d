package manager

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestShardProcessMain is not a test: it is the main() of every shard
// worker process the distributed tests spawn. The tests re-exec the test
// binary with -test.run pinned here and the control address in the
// environment; without the environment it skips immediately.
func TestShardProcessMain(t *testing.T) {
	addr := os.Getenv("FIRESIM_SHARD_CONTROL")
	if addr == "" {
		t.Skip("re-exec entry point for the distributed tests")
	}
	if err := RunShard(ShardConfig{ControlAddr: addr, Name: os.Getenv("FIRESIM_SHARD_NAME")}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testSpawn re-execs this test binary as a shard worker. The child's
// stderr is the test's, so a data race found in RunShard shows; a
// race-built child must not sleep at exit, or shutdown kills it at the
// lease instead of seeing it exit.
func testSpawn() func(name, controlAddr string) *exec.Cmd {
	return func(name, controlAddr string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestShardProcessMain$")
		cmd.Env = append(os.Environ(),
			"FIRESIM_SHARD_CONTROL="+controlAddr,
			"FIRESIM_SHARD_NAME="+name,
			"GORACE=atexit_sleep_ms=0",
		)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// distTestSpec builds a rack of single-core servers hanging directly off
// the root switch (one partition unit per server) with a deterministic
// all-to-next streaming workload.
func distTestSpec(t *testing.T, nodes int, parallel bool) ClusterSpec {
	t.Helper()
	spec, err := RackSpec(nodes, DeployConfig{LinkLatency: 512, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallel = parallel
	if parallel {
		spec.Workers = 3
	}
	spec.Workload = &WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: 1, StopAt: 12000}
	return spec
}

// compareWithReference checks a distributed run's component hashes
// bit-for-bit against an undisturbed in-process whole-cluster run.
func compareWithReference(t *testing.T, spec ClusterSpec, horizon uint64, report *DistReport) {
	t.Helper()
	ref, err := ReferenceHashes(spec, horizon)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref) != len(report.Hashes) {
		t.Fatalf("distributed run reported %d components, reference has %d", len(report.Hashes), len(ref))
	}
	for k, want := range ref {
		if got, ok := report.Hashes[k]; !ok || got != want {
			t.Errorf("component %s: distributed %016x, reference %016x", k, got, want)
		}
	}
	if got, want := report.Combined, CombineHashes(ref); got != want {
		t.Errorf("combined hash: distributed %016x, reference %016x", got, want)
	}
}

func TestDistributedCleanSequential(t *testing.T) { runCleanDist(t, false) }
func TestDistributedCleanParallel(t *testing.T)   { runCleanDist(t, true) }

// runCleanDist is the no-failure baseline: a multi-process run must be
// bit-identical to the in-process reference in one epoch, and every
// shard must have exited cleanly by the time RunDistributed returns.
func runCleanDist(t *testing.T, parallel bool) {
	spec := distTestSpec(t, 4, parallel)
	const horizon = 8192
	shards := map[string]*exec.Cmd{}
	spawn := testSpawn()
	report, err := RunDistributed(CoordinatorConfig{
		Spec:      spec,
		Procs:     2,
		BaseDir:   t.TempDir(),
		CkptEvery: 2048,
		Horizon:   horizon,
		Spawn: func(name, controlAddr string) *exec.Cmd {
			shards[name] = spawn(name, controlAddr)
			return shards[name]
		},
		Log: t.Logf,
	})
	for name, cmd := range shards {
		if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 0 {
			t.Errorf("%s: process state %v when RunDistributed returned, want exit code 0", name, cmd.ProcessState)
		}
	}
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	if report.Cycle != horizon {
		t.Errorf("final cycle %d, want %d", report.Cycle, horizon)
	}
	if report.Epochs != 1 || report.Recoveries != 0 {
		t.Errorf("clean run used %d epochs / %d recoveries, want 1 / 0", report.Epochs, report.Recoveries)
	}
	compareWithReference(t, spec, horizon, report)
}

// TestDistributedChaosSequential is the keystone: a 3-process, 8-node
// run that loses one shard to SIGKILL, has another stall (alive, still
// heartbeating, target time frozen — only the progress watchdog can see
// it), and finds a checkpoint torn mid-write at recovery. With no
// respawn budget, the lost shard's units are re-packed onto the two
// survivors. The healed run must be bit-identical to an undisturbed
// single-process run.
func TestDistributedChaosSequential(t *testing.T) {
	runChaosDist(t, chaosCase{
		parallel:      false,
		chaos:         "kill:shard1@4096,stall:shard2@8192+2500,tear:sub0",
		respawnBudget: 0,
		minRecoveries: 2,
		wantProcs:     2, // shard1 never replaced: elastic re-pack
	})
}

// TestDistributedChaosParallel runs the same storm against the
// worker-pool scheduler, adds a SIGSTOP victim (caught by lease expiry,
// killed while stopped), and gives the coordinator a respawn budget, so
// every lost process is replaced and the fleet ends at full strength.
func TestDistributedChaosParallel(t *testing.T) {
	runChaosDist(t, chaosCase{
		parallel:      true,
		chaos:         "kill:shard1@4096,stop:shard0@6144,stall:shard2@10240+2500,tear:sub1",
		respawnBudget: 2,
		minRecoveries: 3,
		wantProcs:     3, // every loss respawned
	})
}

// TestDistributedRecoveryExhausted covers the give-up path: a second
// shard loss after the one recovery MaxRecoveries allows must end the run
// with an error instead of healing again.
func TestDistributedRecoveryExhausted(t *testing.T) {
	chaos, err := faults.ParseChaos("kill:shard1@4096,kill:shard0@8192")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunDistributed(CoordinatorConfig{
		Spec:          distTestSpec(t, 8, false),
		Procs:         3,
		BaseDir:       t.TempDir(),
		CkptEvery:     2048,
		Horizon:       16384,
		MaxRecoveries: 1,
		Chaos:         chaos,
		Spawn:         testSpawn(),
		Log:           t.Logf,
	})
	if err == nil || !strings.Contains(err.Error(), "giving up after 1 recoveries") {
		t.Fatalf("RunDistributed error = %v, want it to give up after 1 recovery", err)
	}
}

type chaosCase struct {
	parallel      bool
	chaos         string
	respawnBudget int
	minRecoveries int
	wantProcs     int
}

func runChaosDist(t *testing.T, tc chaosCase) {
	spec := distTestSpec(t, 8, tc.parallel)
	const horizon = 16384
	chaos, err := faults.ParseChaos(tc.chaos)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunDistributed(CoordinatorConfig{
		Spec:          spec,
		Procs:         3,
		BaseDir:       t.TempDir(),
		CkptEvery:     2048,
		Horizon:       horizon,
		MaxRecoveries: 5,
		RespawnBudget: tc.respawnBudget,
		Chaos:         chaos,
		Spawn:         testSpawn(),
		Log:           t.Logf,
		Lease:         800 * time.Millisecond,
		StallAfter:    1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	if report.Cycle != horizon {
		t.Errorf("final cycle %d, want %d", report.Cycle, horizon)
	}
	if report.Recoveries < tc.minRecoveries {
		t.Errorf("run healed %d failures, expected at least %d (chaos %q)", report.Recoveries, tc.minRecoveries, tc.chaos)
	}
	if report.FinalProcs != tc.wantProcs {
		t.Errorf("run finished with %d procs, want %d", report.FinalProcs, tc.wantProcs)
	}
	compareWithReference(t, spec, horizon, report)
}
