package manager

import (
	"testing"

	"repro/internal/obs"
)

// TestClusterMetricsEndToEnd deploys a small topology with every layer
// instrumented against one registry and checks the layers agree with
// each other after a run: the runner's cycle gauge and round counter must
// name the same final cycle, and the switch mirror must have seen the
// ping traffic.
func TestClusterMetricsEndToEnd(t *testing.T) {
	topo := rackOf(2)
	c, err := Deploy(topo, DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("cluster")
	c.EnableMetrics(reg)

	c.Servers[0].Ping(0, c.Servers[1].IP(), 3, 40*c.LinkLatency, nil)
	if err := c.RunFor(20 * c.LinkLatency); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	cycle := c.Runner.Cycle()
	if cycle < 20*c.LinkLatency {
		t.Fatalf("run stopped at cycle %d, want at least %d", cycle, 20*c.LinkLatency)
	}
	if got := snap.Gauges["fame_cycle"]; got != int64(cycle) {
		t.Errorf("fame_cycle = %d, want %d", got, cycle)
	}
	if got := snap.Counters[obs.Label("switch_flits_in_total", "switch", "tor0")]; got == 0 {
		t.Error("switch mirror saw no traffic despite an in-flight ping")
	}
	if got := snap.Counters["fame_rounds_total"]; got != uint64(cycle/c.Runner.Step()) {
		t.Errorf("fame_rounds_total = %d, want %d", got, uint64(cycle/c.Runner.Step()))
	}
}
