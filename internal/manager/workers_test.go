package manager

import (
	"fmt"
	"testing"

	"repro/internal/clock"
)

// workersRack deploys a small rack with cross-traffic and the given
// worker count.
func workersRack(t *testing.T, workers int) *Cluster {
	t.Helper()
	topo := NewSwitchNode("tor0")
	for i := 0; i < 4; i++ {
		topo.AddDownlinks(NewServerNode(fmt.Sprintf("s%d", i), QuadCore))
	}
	c, err := Deploy(topo, DeployConfig{Seed: 7, LinkLatency: 3200, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 40 * 3200
	c.Servers[0].StartRawStream(0, c.Servers[1].MAC(), 1500, 10.0, horizon)
	c.Servers[2].StartRawStream(0, c.Servers[3].MAC(), 900, 5.0, horizon)
	return c
}

// TestDeployWorkersEquivalence pins the DeployConfig.Workers plumbing to
// the determinism contract: the same deployment run sequentially and with
// forced multi-worker parallel scheduling must reach byte-identical
// checkpoint state.
func TestDeployWorkersEquivalence(t *testing.T) {
	const horizon = clock.Cycles(40 * 3200)

	ref := workersRack(t, 0)
	if err := ref.RunFor(horizon); err != nil {
		t.Fatal(err)
	}
	want, err := ref.StateHash()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 3} {
		c := workersRack(t, workers)
		if got := c.Runner.Workers(); got != workers {
			t.Fatalf("DeployConfig.Workers=%d not plumbed to runner (got %d)", workers, got)
		}
		if err := c.Runner.RunParallel(horizon); err != nil {
			t.Fatal(err)
		}
		got, err := c.StateHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: state hash %#x diverged from sequential %#x", workers, got, want)
		}
	}

	bad := NewSwitchNode("t")
	bad.AddDownlinks(NewServerNode("s", QuadCore))
	if _, err := Deploy(bad, DeployConfig{Workers: -1}); err == nil {
		t.Error("Deploy accepted a negative worker count")
	}
}

// TestDeployMultiplexedEquivalence: four servers and a switch multiplexed
// onto fewer workers is host-side scheduling only. Workers must leave the
// topology hash unchanged (a cluster deployed with any worker count still
// handshakes with a peer deployed with another) and land on the same state.
func TestDeployMultiplexedEquivalence(t *testing.T) {
	const horizon = clock.Cycles(40 * 3200)

	ref := workersRack(t, 1)
	if err := ref.Runner.RunParallel(horizon); err != nil {
		t.Fatal(err)
	}
	want, err := ref.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		c := workersRack(t, workers)
		if c.TopoHash != ref.TopoHash {
			t.Errorf("workers=%d: worker count changed the topology hash", workers)
		}
		if err := c.Runner.RunParallel(horizon); err != nil {
			t.Fatal(err)
		}
		if got, err := c.StateHash(); err != nil || got != want {
			t.Errorf("workers=%d: state hash %#x (err %v), want %#x", workers, got, err, want)
		}
	}
}
