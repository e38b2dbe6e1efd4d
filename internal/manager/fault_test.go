package manager

import (
	"bytes"
	"testing"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
)

// aggressiveFaults has rates high enough that a short run sees every fault
// kind.
func aggressiveFaults(horizon clock.Cycles) faults.Config {
	return faults.Config{
		Scenario:    "test-aggressive",
		Seed:        99,
		Horizon:     horizon,
		LinkFlap:    faults.Burst{MeanEvery: 40_000, MeanDuration: 6_000},
		PacketDrop:  faults.Burst{MeanEvery: 30_000, MeanDuration: 4_000},
		Corrupt:     faults.Burst{MeanEvery: 60_000, MeanDuration: 2_000},
		PortStall:   faults.Burst{MeanEvery: 50_000, MeanDuration: 3_000},
		NodeFreeze:  faults.Burst{MeanEvery: 200_000, MeanDuration: 10_000},
		CorruptMask: faults.DefaultCorruptMask,
	}
}

func faultedRack(t *testing.T, n int) (*Cluster, clock.Cycles) {
	t.Helper()
	const horizon = 100 * 6400 // 640k cycles at the default link latency
	topo := rackOf(n)
	fcfg := aggressiveFaults(horizon)
	c, err := Deploy(topo, DeployConfig{Seed: 7, FaultConfig: &fcfg})
	if err != nil {
		t.Fatal(err)
	}
	if c.Faults == nil {
		t.Fatal("fault config did not produce a plan")
	}
	// Continuous traffic crossing the faulted links in both directions.
	c.Servers[0].StartRawStream(0, c.Servers[1].MAC(), 1500, 10.0, horizon)
	c.Servers[2].StartRawStream(0, c.Servers[0].MAC(), 1200, 5.0, horizon)
	return c, horizon
}

type faultRunDigest struct {
	cycle    clock.Cycles
	nodes    []softstack.Stats
	switches []switchmodel.Stats
	injected uint64
}

func digest(c *Cluster) faultRunDigest {
	d := faultRunDigest{cycle: c.Runner.Cycle()}
	for _, n := range c.Servers {
		d.nodes = append(d.nodes, n.Stats())
	}
	for _, sw := range c.Switches {
		d.switches = append(d.switches, sw.Stats())
	}
	for _, name := range c.Faults.Counters().Names() {
		d.injected += c.Faults.Counters().Get(name)
	}
	return d
}

func digestsEqual(a, b faultRunDigest) bool {
	if a.cycle != b.cycle || a.injected != b.injected ||
		len(a.nodes) != len(b.nodes) || len(a.switches) != len(b.switches) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for i := range a.switches {
		if a.switches[i] != b.switches[i] {
			return false
		}
	}
	return true
}

// TestFaultDeterminism is the fault-injection acceptance test: the same
// seed must yield a byte-identical fault schedule and an identical
// post-fault simulation — node for node, counter for counter — across
// repeated runs and across the sequential and parallel schedulers.
func TestFaultDeterminism(t *testing.T) {
	c1, horizon := faultedRack(t, 4)
	if err := c1.RunFor(horizon); err != nil {
		t.Fatal(err)
	}
	d1 := digest(c1)
	if d1.injected == 0 {
		t.Fatal("aggressive fault plan injected nothing; the schedule is not wired into the runner")
	}

	c2, _ := faultedRack(t, 4)
	if !bytes.Equal(c1.Faults.Encode(), c2.Faults.Encode()) {
		t.Fatal("same seed produced different fault schedules")
	}
	if c1.Faults.Fingerprint() != c2.Faults.Fingerprint() {
		t.Fatal("same seed produced different fingerprints")
	}
	if err := c2.RunFor(horizon); err != nil {
		t.Fatal(err)
	}
	if d2 := digest(c2); !digestsEqual(d1, d2) {
		t.Errorf("identical seeds diverged under faults:\nrun1: %+v\nrun2: %+v", d1, d2)
	}

	// Parallel scheduler, same seed: bit-identical again.
	c3, _ := faultedRack(t, 4)
	if err := c3.Runner.RunParallel(horizon); err != nil {
		t.Fatal(err)
	}
	if d3 := digest(c3); !digestsEqual(d1, d3) {
		t.Errorf("parallel run diverged from sequential under faults:\nseq: %+v\npar: %+v", d1, d3)
	}

	// Different seed: the schedule must actually differ (faults are not
	// being ignored).
	topo := rackOf(4)
	fcfg := aggressiveFaults(horizon)
	fcfg.Seed = 100
	c4, err := Deploy(topo, DeployConfig{Seed: 7, FaultConfig: &fcfg})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1.Faults.Encode(), c4.Faults.Encode()) {
		t.Error("different fault seeds produced identical schedules")
	}
}

// TestDeployFaultScenario covers the named-scenario path through
// DeployConfig.
func TestDeployFaultScenario(t *testing.T) {
	topo := rackOf(2)
	c, err := Deploy(topo, DeployConfig{Seed: 3, FaultScenario: "flaky-links"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Faults == nil || len(c.Faults.Events()) == 0 {
		t.Fatal("named scenario produced no fault plan")
	}

	topo2 := rackOf(1)
	if _, err := Deploy(topo2, DeployConfig{FaultScenario: "no-such-scenario"}); err == nil {
		t.Error("unknown fault scenario accepted")
	}

	topo3 := rackOf(1)
	c3, err := Deploy(topo3, DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Faults != nil {
		t.Error("fault plan present without any fault configuration")
	}
}

// TestTopologyHash: equal deployments hash equal; structural or parameter
// changes change the hash.
func TestTopologyHash(t *testing.T) {
	mk := rackOf
	h1 := TopologyHash(mk(4), DeployConfig{})
	h2 := TopologyHash(mk(4), DeployConfig{})
	if h1 != h2 {
		t.Error("identical topologies hash differently")
	}
	if h1 == TopologyHash(mk(5), DeployConfig{}) {
		t.Error("different server counts hash identically")
	}
	if h1 == TopologyHash(mk(4), DeployConfig{LinkLatency: 3200}) {
		t.Error("different link latencies hash identically")
	}
	if h1 == TopologyHash(mk(4), DeployConfig{Supernode: true}) {
		t.Error("supernode packing does not affect the hash")
	}
}
