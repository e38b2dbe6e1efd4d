package core

import (
	"testing"

	"repro/internal/manager"
	"repro/internal/softstack"
)

// The shim must keep composing the way the benchmark harness uses it:
// Tree, then Deploy with a DeployConfig.

func TestRack(t *testing.T) {
	r, err := Tree([]int{8}, QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	if got := manager.CountServers(r); got != 8 {
		t.Errorf("rack has %d servers, want 8", got)
	}
	if err := manager.Validate(r); err != nil {
		t.Error(err)
	}
}

func TestTreeMatchesFigure10(t *testing.T) {
	topo, err := Tree([]int{4, 8, 32}, QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	if got := manager.CountServers(topo); got != 1024 {
		t.Errorf("tree has %d servers, want 1024", got)
	}
	if got := manager.CountSwitches(topo); got != 37 {
		t.Errorf("tree has %d switches, want 37", got)
	}
}

func TestTreeEmpty(t *testing.T) {
	if _, err := Tree(nil, QuadCore); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestDeployAndPing(t *testing.T) {
	topo, err := Tree([]int{4}, QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Deploy(topo, DeployConfig{LinkLatency: 3200})
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Servers
	if len(nodes) != 4 {
		t.Fatalf("deployed %d nodes", len(nodes))
	}
	var res []softstack.PingResult
	nodes[0].Ping(0, nodes[3].IP(), 3, 50*3200, func(r []softstack.PingResult) { res = r })
	ok, err := c.RunUntil(func() bool { return res != nil }, 10_000_000)
	if err != nil || !ok {
		t.Fatalf("ping failed: %v", err)
	}
}

func TestMeasureRate(t *testing.T) {
	topo, err := Tree([]int{2}, manager.SingleCore)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Deploy(topo, DeployConfig{LinkLatency: 6400})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := c.MeasureRate(640_000)
	if err != nil {
		t.Fatal(err)
	}
	if rate.EffectiveHz() <= 0 {
		t.Error("no measured rate")
	}
}
