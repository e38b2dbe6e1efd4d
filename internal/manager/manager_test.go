package manager

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/softstack"
)

// sw and srv build test topologies tersely.
func sw(name string, downlinks ...NodeSpec) NodeSpec {
	return NodeSpec{Switch: name, Downlinks: downlinks}
}

func srv(name string, blade BladeType) NodeSpec { return NodeSpec{Server: name, Blade: blade} }

// rackOf is a ToR named tor0 over n quad-core servers named s0, s1, ...
func rackOf(n int) NodeSpec {
	tor := sw("tor0")
	for i := 0; i < n; i++ {
		tor.Downlinks = append(tor.Downlinks, srv(fmt.Sprintf("s%d", i), QuadCore))
	}
	return tor
}

// figure4Topology builds the paper's 64-node example: a root switch over 8
// ToR switches with 8 quad-core servers each (Figures 1 and 4).
func figure4Topology() NodeSpec {
	root := sw("root")
	for i := 0; i < 8; i++ {
		root.Downlinks = append(root.Downlinks, Rack(fmt.Sprintf("tor%d", i), 8, QuadCore))
	}
	return root
}

// figure10Topology builds the 1024-node datacenter: 32 ToR switches of 32
// servers each, 4 aggregation switches of 8 ToRs each, one root.
func figure10Topology() NodeSpec {
	root := sw("root")
	for a := 0; a < 4; a++ {
		agg := sw(fmt.Sprintf("agg%d", a))
		for t := 0; t < 8; t++ {
			agg.Downlinks = append(agg.Downlinks, Rack(fmt.Sprintf("tor%d_%d", a, t), 32, QuadCore))
		}
		root.Downlinks = append(root.Downlinks, agg)
	}
	return root
}

func TestValidate(t *testing.T) {
	if err := Validate(figure4Topology()); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		root NodeSpec
	}{
		{"zero root", NodeSpec{}},
		{"server root", srv("s", QuadCore)},
		{"switch with no downlinks", sw("empty")},
		{"repeated name", sw("root", srv("s", QuadCore), srv("s", QuadCore))},
		{"unknown blade type", sw("root", srv("s", BladeType("OctoCore")))},
		{"unnamed server", sw("root", srv("", QuadCore))},
		{"switch and server at once", sw("root", NodeSpec{Switch: "x", Server: "x", Blade: QuadCore})},
		{"server with downlinks", sw("root", NodeSpec{Server: "s", Blade: QuadCore, Downlinks: []NodeSpec{srv("t", QuadCore)}})},
	} {
		if err := Validate(tc.root); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCounts(t *testing.T) {
	topo := figure4Topology()
	if got := CountServers(topo); got != 64 {
		t.Errorf("CountServers = %d, want 64", got)
	}
	if got := CountSwitches(topo); got != 9 {
		t.Errorf("CountSwitches = %d, want 9", got)
	}
	topo10 := figure10Topology()
	if got := CountServers(topo10); got != 1024 {
		t.Errorf("CountServers = %d, want 1024", got)
	}
	if got := CountSwitches(topo10); got != 37 {
		t.Errorf("CountSwitches = %d, want 37 (32 ToR + 4 agg + 1 root)", got)
	}
}

func TestBuildFarmDedupes(t *testing.T) {
	farm := NewBuildFarm()
	topo := sw("root", srv("a", QuadCore), srv("b", QuadCore), srv("c", SingleCore))
	images, err := farm.BuildAll(topo, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 2 {
		t.Errorf("built %d images, want 2 distinct types", len(images))
	}
	if farm.Builds != 2 {
		t.Errorf("Builds = %d, want 2", farm.Builds)
	}
	// Rebuilding is a cache hit.
	if _, err := farm.BuildAll(topo, false); err != nil {
		t.Fatal(err)
	}
	if farm.Builds != 2 {
		t.Errorf("rebuild triggered %d total builds, want cached 2", farm.Builds)
	}
	// Supernode images are distinct artifacts.
	img, err := farm.Build(QuadCore, true)
	if err != nil {
		t.Fatal(err)
	}
	if img.AGFI == images[0].AGFI {
		t.Error("supernode image shares AGFI with standard image")
	}
}

func TestDeployFigure4Mapping(t *testing.T) {
	// The paper's Figure 2 mapping: 64 standard nodes need 64 FPGAs = 8x
	// f1.16xlarge, plus one m4.16xlarge for the root switch.
	c, err := Deploy(figure4Topology(), DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Servers) != 64 || len(c.Switches) != 9 {
		t.Fatalf("deployed %d servers, %d switches", len(c.Servers), len(c.Switches))
	}
	if got := c.Deployment.Count("f1.16xlarge"); got != 8 {
		t.Errorf("f1.16xlarge = %d, want 8", got)
	}
	if got := c.Deployment.Count("m4.16xlarge"); got != 1 {
		t.Errorf("m4.16xlarge = %d, want 1", got)
	}
	// Unique MACs and IPs.
	macs := map[uint64]bool{}
	for _, s := range c.Servers {
		if macs[uint64(s.MAC())] {
			t.Errorf("duplicate MAC %v", s.MAC())
		}
		macs[uint64(s.MAC())] = true
	}
	if got := c.Servers[0].Name(); got != "tor0-s0" {
		t.Errorf("first server is %q, want tor0-s0", got)
	}
}

func TestDeployFigure10Supernode(t *testing.T) {
	// Section V-C: 1024 supernode-packed nodes on 32 f1.16xlarge plus 5
	// m4.16xlarge, ~$100/hour spot, ~$440/hour on-demand, $12.8M of
	// FPGAs.
	c, err := Deploy(figure10Topology(), DeployConfig{Supernode: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Deployment.Count("f1.16xlarge"); got != 32 {
		t.Errorf("f1.16xlarge = %d, want 32", got)
	}
	if got := c.Deployment.Count("m4.16xlarge"); got != 5 {
		t.Errorf("m4.16xlarge = %d, want 5", got)
	}
	if got := c.Deployment.FPGAValueUSD(); got != 12_800_000 {
		t.Errorf("FPGA value = %.0f", got)
	}
	spot := c.Deployment.HourlyCost(true)
	if spot < 90 || spot > 110 {
		t.Errorf("spot = $%.2f, want ~$100", spot)
	}
	onDemand := c.Deployment.HourlyCost(false)
	if onDemand < 430 || onDemand > 450 {
		t.Errorf("on-demand = $%.2f, want ~$440", onDemand)
	}
}

func TestPingAcrossDeployedCluster(t *testing.T) {
	// End-to-end: deploy a 2-ToR topology and ping same-rack vs
	// cross-rack; the cross-rack RTT must exceed same-rack by exactly
	// 4 link latencies plus 2 switch crossings (the Table III mechanism).
	root := sw("root",
		sw("tor0", srv("n00", QuadCore), srv("n01", QuadCore)),
		sw("tor1", srv("n10", QuadCore), srv("n11", QuadCore)))
	const lat = 6400
	c, err := Deploy(root, DeployConfig{LinkLatency: lat})
	if err != nil {
		t.Fatal(err)
	}

	ping := func(from, to int) clock.Cycles {
		src, dst := c.Servers[from], c.Servers[to]
		var res []softstack.PingResult
		src.Ping(c.Runner.Cycle(), dst.IP(), 3, 100*3200, func(r []softstack.PingResult) { res = r })
		ok, err := c.RunUntil(func() bool { return res != nil }, c.Runner.Cycle()+20_000_000)
		if err != nil || !ok {
			t.Fatalf("ping %s->%s did not complete: %v", src.Name(), dst.Name(), err)
		}
		return res[len(res)-1].RTT // last sample: steady state
	}

	same := ping(0, 1)  // n00 -> n01
	cross := ping(0, 3) // n00 -> n11
	wantDelta := clock.Cycles(4*lat + 2*10)
	delta := cross - same
	slack := clock.Cycles(200) // frame serialisation slack
	if delta < wantDelta-slack || delta > wantDelta+slack {
		t.Errorf("cross-rack RTT delta = %d cycles, want ~%d", delta, wantDelta)
	}
}

func TestRunForRounds(t *testing.T) {
	root := sw("root", srv("a", SingleCore), srv("b", SingleCore))
	c, err := Deploy(root, DeployConfig{LinkLatency: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(1234); err != nil { // rounds up to 1300
		t.Fatal(err)
	}
	if got := c.Runner.Cycle(); got != 1300 {
		t.Errorf("Cycle = %d, want 1300", got)
	}
	// Sub-batch requests advance a whole batch rather than silently
	// doing nothing.
	if err := c.RunFor(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Runner.Cycle(); got != 1400 {
		t.Errorf("Cycle after RunFor(1) = %d, want 1400", got)
	}
	// Zero and negative cycle counts are caller bugs, not no-ops.
	if err := c.RunFor(0); err == nil {
		t.Error("RunFor(0) succeeded, want error")
	}
	if err := c.RunFor(-5); err == nil {
		t.Error("RunFor(-5) succeeded, want error")
	}
}

func TestRunUntilStopsAtMaxCycles(t *testing.T) {
	root := sw("root", srv("a", SingleCore), srv("b", SingleCore))
	c, err := Deploy(root, DeployConfig{LinkLatency: 100})
	if err != nil {
		t.Fatal(err)
	}
	// An unsatisfiable predicate must stop at (not past) the horizon even
	// when the horizon is not a multiple of the 4-batch stride.
	ok, err := c.RunUntil(func() bool { return false }, 500)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pred reported satisfied")
	}
	if got := c.Runner.Cycle(); got != 500 {
		t.Errorf("Cycle = %d, want exactly 500", got)
	}
}

func TestDeployValidatesTopology(t *testing.T) {
	if _, err := Deploy(sw("empty"), DeployConfig{}); err == nil {
		t.Error("empty topology deployed")
	}
}

// TestSupernodeEquivalence: FAME-5 supernode packing must not change
// target behaviour — ping RTTs are identical to a standard deployment of
// the same topology.
func TestSupernodeEquivalence(t *testing.T) {
	run := func(supernode bool) []clock.Cycles {
		root := sw("root", Rack("tor0", 8, QuadCore))
		c, err := Deploy(root, DeployConfig{LinkLatency: 3200, Supernode: supernode, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var res []softstack.PingResult
		c.Servers[0].Ping(0, c.Servers[7].IP(), 4, 50*3200,
			func(r []softstack.PingResult) { res = r })
		ok, err := c.RunUntil(func() bool { return res != nil }, 20_000_000)
		if err != nil || !ok {
			t.Fatalf("ping failed: %v", err)
		}
		var rtts []clock.Cycles
		for _, p := range res {
			rtts = append(rtts, p.RTT)
		}
		return rtts
	}
	std := run(false)
	super := run(true)
	for i := range std {
		if std[i] != super[i] {
			t.Fatalf("supernode RTTs differ from standard: %v vs %v", super, std)
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := Workloads()
	if len(names) < 2 {
		t.Fatalf("workloads = %v", names)
	}
	root := sw("root", Rack("tor0", 3, QuadCore))
	c, err := Deploy(root, DeployConfig{LinkLatency: 3200})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunWorkload("ping-all", c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "tor0-s1") || !strings.Contains(report, "tor0-s2") {
		t.Errorf("ping-all report missing peers:\n%s", report)
	}
	report, err = RunWorkload("net-stats", c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "switch") {
		t.Errorf("net-stats report missing switches:\n%s", report)
	}
	if _, err := RunWorkload("nope", c); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSmallDeployUsesF12xlarge(t *testing.T) {
	root := sw("root", srv("a", QuadCore), srv("b", QuadCore))
	c, err := Deploy(root, DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Deployment.Count("f1.2xlarge"); got != 2 {
		t.Errorf("f1.2xlarge = %d, want 2 (one FPGA per node)", got)
	}
	if got := c.Deployment.Count("f1.16xlarge"); got != 0 {
		t.Errorf("f1.16xlarge = %d, want 0 for a 2-node sim", got)
	}
	// Supernode packing fits both nodes on one FPGA.
	c2, err := Deploy(root, DeployConfig{Supernode: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Deployment.Count("f1.2xlarge"); got != 1 {
		t.Errorf("supernode f1.2xlarge = %d, want 1", got)
	}
}
