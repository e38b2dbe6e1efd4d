package manager

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
)

// TestCutUnitsEnumeration pins the cut semantics BuildPartition and the
// coordinator both rely on: deterministic pre-order, one unit per severed
// subtree, servers above the cut becoming their own units, and cut levels
// <= 1 reproducing the historical root-downlink numbering.
func TestCutUnitsEnumeration(t *testing.T) {
	// Rack: every cut level degenerates to one unit per server.
	rack := Rack("root", 4, SingleCore)
	for _, lvl := range []int{0, 1, 2} {
		units := CutUnits(rack, lvl)
		if len(units) != 4 {
			t.Fatalf("rack cut level %d: %d units, want 4", lvl, len(units))
		}
		for i, u := range units {
			if u != &rack.Downlinks[i] {
				t.Errorf("rack cut level %d unit %d is not downlink %d", lvl, i, i)
			}
		}
	}

	// Uniform tree {2,2,2}: level 1 cuts the 2 aggregation subtrees,
	// level 2 the 4 ToR subtrees, level 3 the 8 servers.
	tree, err := Tree([]int{2, 2, 2}, SingleCore)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ level, want int }{{1, 2}, {2, 4}, {3, 8}} {
		units := CutUnits(tree, tc.level)
		if len(units) != tc.want {
			t.Fatalf("tree cut level %d: %d units, want %d", tc.level, len(units), tc.want)
		}
		servers := 0
		for _, u := range units {
			servers += CountServers(*u)
		}
		if servers != 8 {
			t.Errorf("tree cut level %d covers %d servers, want all 8", tc.level, servers)
		}
	}

	// Ragged tree: a server hanging above the cut level becomes its own
	// unit, and pre-order interleaves it with the severed subtrees.
	ragged := sw("root",
		srv("srv", SingleCore),
		sw("agg", sw("tor", srv("a", SingleCore), srv("b", SingleCore)), srv("leaf", SingleCore)))
	units := CutUnits(ragged, 2)
	if len(units) != 3 {
		t.Fatalf("ragged cut level 2: %d units, want 3", len(units))
	}
	agg := &ragged.Downlinks[1]
	if units[0] != &ragged.Downlinks[0] || units[1] != &agg.Downlinks[0] || units[2] != &agg.Downlinks[1] {
		t.Errorf("ragged cut level 2 pre-order: got [%+v %+v %+v], want [srv, tor, leaf]",
			*units[0], *units[1], *units[2])
	}

	// Weights follow the same enumeration.
	w := unitWeights(ragged, 2)
	if len(w) != 3 || w[0] != 1 || w[1] != 2 || w[2] != 1 {
		t.Errorf("ragged unit weights = %v, want [1 2 1]", w)
	}
}

// TestBuildPartitionTreeCut checks the static shape of a level-2 cut of a
// {2,2,2} tree: the coordinator hosts root + both aggregation switches
// with 4 down-bridges, each shard unit hosts one ToR subtree, and unit
// indices out of cut range are rejected.
func TestBuildPartitionTreeCut(t *testing.T) {
	spec, err := TreeSpec([]int{2, 2, 2}, SingleCore, DeployConfig{LinkLatency: 512, Seed: 42}, 2)
	if err != nil {
		t.Fatal(err)
	}

	rootPart, err := BuildPartition(spec, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rootPart.Switches); got != 3 {
		t.Errorf("root partition has %d switches, want 3 (root + 2 aggregation)", got)
	}
	if got := len(rootPart.Bridges); got != 4 {
		t.Errorf("root partition has %d bridges, want 4", got)
	}
	if got := len(rootPart.units[RootUnit].sections); got != 3 {
		t.Errorf("root unit checkpoints %d sections, want 3", got)
	}

	shard, err := BuildPartition(spec, []int{1, 3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(shard.Servers); got != 4 {
		t.Errorf("shard hosting units {1,3} has %d servers, want 4", got)
	}
	if got := len(shard.Switches); got != 2 {
		t.Errorf("shard hosting units {1,3} has %d switches, want 2 ToRs", got)
	}

	if _, err := BuildPartition(spec, []int{4}, time.Second); err == nil {
		t.Error("unit 4 of a 4-unit cut accepted, want out-of-range error")
	}
}

// TestDistributedTreeCut is the multi-level-cut keystone: a {2,2,2} tree
// cut at the ToR level (4 units over 2 procs, aggregation switches in the
// coordinator), disturbed by a mid-run SIGKILL, must heal and finish
// bit-identical to the undisturbed in-process whole-cluster run.
func TestDistributedTreeCut(t *testing.T) {
	spec, err := TreeSpec([]int{2, 2, 2}, SingleCore, DeployConfig{LinkLatency: 512, Seed: 42}, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = &WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: 1, StopAt: 12000}
	const horizon = 16384
	chaos, err := faults.ParseChaos("kill:shard1@4096")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunDistributed(CoordinatorConfig{
		Spec:          spec,
		Procs:         2,
		BaseDir:       t.TempDir(),
		CkptEvery:     2048,
		Horizon:       horizon,
		MaxRecoveries: 5,
		RespawnBudget: 0,
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
	if report.Recoveries < 1 {
		t.Errorf("run healed %d failures, want at least the SIGKILL", report.Recoveries)
	}
	if report.FinalProcs != 1 {
		t.Errorf("run finished with %d procs, want 1 (no respawn budget)", report.FinalProcs)
	}
	compareWithReference(t, spec, horizon, report)
}

// runCut runs spec to horizon cut in process: the root partition and one
// shard partition hosting units, every unit's bridge pair joined over
// net.Pipe, each side driven by RunSlice on its own goroutine. It returns
// the merged component hashes of both sides. It fails the test if any
// switch dropped a packet on a full buffer: buffer-full admission still
// depends on the window size, so callers stay below that load.
func runCut(t *testing.T, spec ClusterSpec, units []int, horizon clock.Cycles) map[string]uint64 {
	t.Helper()
	root, err := BuildPartition(spec, nil, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := BuildPartition(spec, units, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer root.CloseBridges()
	defer shard.CloseBridges()
	for _, u := range units {
		up, down := net.Pipe()
		if err := root.AttachBridge(u, up, 0); err != nil {
			t.Fatal(err)
		}
		if err := shard.AttachBridge(u, down, 0); err != nil {
			t.Fatal(err)
		}
	}
	parts := []*Partition{root, shard}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.RunSlice(horizon)
		}()
	}
	wg.Wait()
	maps := make([]map[string]uint64, len(parts))
	for i, p := range parts {
		if errs[i] != nil {
			t.Fatalf("partition %d of %d (root first): %v", i, len(parts), errs[i])
		}
		for _, sw := range p.Switches {
			if d := sw.Stats().DropsBufFull; d != 0 {
				t.Fatalf("switch %s dropped %d packets on a full buffer", sw.Name(), d)
			}
		}
		if maps[i], err = p.UnitHashes(); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeHashes(maps...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestCutMatchesWhole checks the token protocol's promise for streams up
// to the link rate: a cluster cut into a root partition and a shard over
// in-process bridges ends with every component hash equal to the whole
// cluster's, although the partitions tick in half-link windows and the
// whole cluster in full-link ones. Both runs are drop-free.
func TestCutMatchesWhole(t *testing.T) {
	const horizon = 16384
	cfg := DeployConfig{LinkLatency: 512, Seed: 42}
	rack, err := RackSpec(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := TreeSpec([]int{2, 2, 2}, SingleCore, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		spec  ClusterSpec
		units []int
		gbps  []float64
	}{
		{"rack8", rack, []int{0, 1, 2, 3, 4, 5, 6, 7}, []float64{1, 100, 150, 204.8}},
		{"tree222-cut2", tree, []int{0, 1, 2, 3}, []float64{100, 204.8}},
	} {
		for _, gbps := range tc.gbps {
			t.Run(fmt.Sprintf("%s/%gGbps", tc.name, gbps), func(t *testing.T) {
				spec := tc.spec
				spec.Workload = &WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: gbps}
				cut := runCut(t, spec, tc.units, horizon)
				ref, err := ReferenceHashes(spec, horizon)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range DiffHashes(cut, ref) {
					t.Error(d)
				}
			})
		}
	}
}
