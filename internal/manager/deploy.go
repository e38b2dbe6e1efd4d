package manager

import (
	"fmt"
	"hash/fnv"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/faults"
	"repro/internal/hostplatform"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
)

// A fault plan injects at the runner level, so it must satisfy the
// runner's hook interface (faults deliberately does not import fame).
var _ fame.Injector = (*faults.Plan)(nil)

// DeployConfig controls how a topology is instantiated. Network latency,
// bandwidth, topology and blade selection are all runtime-configurable —
// only blade RTL changes would require a rebuild, exactly as in the paper.
type DeployConfig struct {
	// LinkLatency is the latency of every link, in target cycles
	// (default: 2 us at 3.2 GHz = 6400 cycles, the paper's standard).
	LinkLatency clock.Cycles
	// SwitchingLatency is the minimum port-to-port switch latency
	// (default 10 cycles, as in the paper's validation).
	SwitchingLatency clock.Cycles
	// Supernode packs four simulated blades per FPGA (Section III-A5).
	Supernode bool
	// Seed drives all node-level deterministic randomness.
	Seed uint64
	// DisableStaticARP leaves ARP tables empty so first-contact latency
	// includes an ARP round trip (used by the ping benchmark).
	DisableStaticARP bool
	// Freq is the target clock (default 3.2 GHz).
	Freq clock.Hz
	// FaultScenario names a registered fault-injection scenario (see
	// faults.Scenarios); empty means no injection. The schedule is derived
	// deterministically from Seed.
	FaultScenario string
	// FaultConfig, when non-nil, overrides FaultScenario with an explicit
	// fault configuration.
	FaultConfig *faults.Config
	// FaultHorizon bounds the fault schedule in target cycles (default
	// faults.DefaultHorizon; events are only generated below it).
	FaultHorizon clock.Cycles
	// Workers fixes how many workers the runner's parallel scheduler uses
	// (0 = GOMAXPROCS). Host-side tuning only: simulated behaviour is
	// bit-identical for every value, so it is excluded from TopologyHash.
	Workers int
}

// Cluster is a deployed simulation: the token-level runner plus handles to
// every simulated component and the host-platform plan.
type Cluster struct {
	// Runner advances target time.
	Runner *fame.Runner
	// Servers lists the simulated nodes in assignment order.
	Servers []*softstack.Node
	// Switches lists every switch model, root first.
	Switches []*switchmodel.Switch
	// Deployment is the EC2 bill of materials for this simulation.
	Deployment *hostplatform.Deployment
	// Images are the FPGA images the build flow produced.
	Images []Image
	// LinkLatency is the deployed link latency in cycles.
	LinkLatency clock.Cycles
	// Faults is the deterministic fault schedule wired into this
	// simulation, or nil when fault injection is disabled.
	Faults *faults.Plan
	// TopoHash is the structural identity of this deployment (see
	// TopologyHash); checkpoints carry it so a restore into a different
	// target is refused.
	TopoHash uint64

	comps *unitTable      // every node and switch, by checkpoint section
	ids   []*NodeIdentity // server identities in assignment order
}

// RunFor advances the whole simulation by at least the given number of
// target cycles, rounded up to a whole number of batches (the runner can
// only advance in Step()-sized quanta). Asking for zero or negative
// cycles is a caller bug and errors instead of silently doing nothing.
func (c *Cluster) RunFor(cycles clock.Cycles) error {
	if cycles <= 0 {
		return fmt.Errorf("manager: RunFor(%d): cycle count must be positive", cycles)
	}
	step := c.Runner.Step()
	if rem := cycles % step; rem != 0 {
		cycles += step - rem
	}
	return c.Runner.Run(cycles)
}

// RunUntil advances in strides of four batches until pred returns true
// or maxCycles elapse, reporting whether pred was satisfied. The final
// stride is clamped so the simulation never advances past maxCycles.
func (c *Cluster) RunUntil(pred func() bool, maxCycles clock.Cycles) (bool, error) {
	step := c.Runner.Step()
	stride := step * 4
	for c.Runner.Cycle() < maxCycles {
		if pred() {
			return true, nil
		}
		rem := maxCycles - c.Runner.Cycle()
		n := stride
		if n > rem {
			n = rem - rem%step
			if n <= 0 {
				break
			}
		}
		if err := c.Runner.Run(n); err != nil {
			return false, err
		}
	}
	return pred(), nil
}

// MeasureRate runs the cluster for the given number of target cycles,
// rounded down to whole batches, and reports the achieved simulation
// rate, the metric of the paper's Figures 8 and 9.
func (c *Cluster) MeasureRate(cycles clock.Cycles) (clock.SimRate, error) {
	cycles -= cycles % c.Runner.Step()
	return c.Runner.Measure(cycles, clock.DefaultTargetClock, false)
}

// Deploy validates, builds, maps and instantiates the topology.
func Deploy(root NodeSpec, cfg DeployConfig) (*Cluster, error) {
	if err := Validate(root); err != nil {
		return nil, err
	}
	b, err := newBuilder(&root, cfg)
	if err != nil {
		return nil, err
	}
	images, err := NewBuildFarm().BuildAll(root, b.cfg.Supernode)
	if err != nil {
		return nil, err
	}
	if _, err := b.walkSwitch(b.root); err != nil {
		return nil, err
	}
	c := &Cluster{
		Runner:      b.runner,
		Servers:     b.servers,
		Switches:    b.switches,
		Deployment:  planDeployment(b.root, b.cfg.Supernode),
		Images:      images,
		LinkLatency: b.cfg.LinkLatency,
		TopoHash:    b.topoHash,
		comps:       b.tab,
		ids:         b.ids.servers,
	}
	targets := b.targets
	for _, sw := range c.Switches {
		targets = append(targets, faults.Target{Name: sw.Name(), Ports: sw.NumPorts(), Kind: faults.SwitchTarget})
	}
	if err := c.wireFaults(b.cfg, targets); err != nil {
		return nil, err
	}
	return c, nil
}

// wireFaults resolves the configured fault scenario into a deterministic
// plan and installs it: the plan becomes the runner's token injector and
// every switch with scheduled port stalls gets its stall hook.
func (c *Cluster) wireFaults(cfg DeployConfig, targets []faults.Target) error {
	var fcfg faults.Config
	switch {
	case cfg.FaultConfig != nil:
		fcfg = *cfg.FaultConfig
	case cfg.FaultScenario != "":
		var err error
		fcfg, err = faults.Scenario(cfg.FaultScenario, cfg.Seed, cfg.FaultHorizon)
		if err != nil {
			return err
		}
	default:
		return nil
	}
	if !fcfg.Enabled() {
		return nil
	}
	plan, err := faults.Generate(fcfg, targets)
	if err != nil {
		return err
	}
	c.Faults = plan
	c.Runner.SetInjector(plan)
	for _, sw := range c.Switches {
		if fn := plan.StallFunc(sw.Name()); fn != nil {
			sw.SetStall(fn)
		}
	}
	return nil
}

// TopologyHash digests the structural identity of a deployment — tree
// shape, component names, blade types, link latency, supernode packing —
// into a 64-bit value. The two halves of a distributed simulation pass it
// as transport.BridgeConfig.TopologyHash so the bridge handshake refuses
// to splice simulations of different targets together.
func TopologyHash(root NodeSpec, cfg DeployConfig) uint64 {
	h := fnv.New64a()
	write := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	cfg = normalizeConfig(cfg)
	write(fmt.Sprintf("link=%d supernode=%v", cfg.LinkLatency, cfg.Supernode))
	var walk func(n *NodeSpec)
	walk = func(n *NodeSpec) {
		if n.Server != "" {
			write("srv " + n.Server + " " + string(n.Blade))
			return
		}
		write("sw " + n.Switch)
		for i := range n.Downlinks {
			walk(&n.Downlinks[i])
		}
		write("end")
	}
	walk(&root)
	return h.Sum64()
}

// planDeployment maps the topology onto EC2 instances: ToR switches and
// their servers go to f1.16xlarge instances (8 FPGAs each, 1 or 4 nodes
// per FPGA), while aggregation and root switch models get m4.16xlarge
// instances — the mapping of Figure 2 and Section V-C.
func planDeployment(root *NodeSpec, supernode bool) *hostplatform.Deployment {
	d := hostplatform.NewDeployment()
	nodesPerFPGA := 1
	if supernode {
		nodesPerFPGA = 4
	}
	servers := CountServers(*root)
	fpgas := (servers + nodesPerFPGA - 1) / nodesPerFPGA
	if fpgas <= 2 {
		// Small experiments rent single-FPGA f1.2xlarge instances rather
		// than a mostly-idle 8-FPGA f1.16xlarge.
		d.Add(hostplatform.F1_2XLarge, fpgas)
	} else if f116 := (fpgas + 7) / 8; f116 > 0 {
		d.Add(hostplatform.F1_16XLarge, f116)
	}

	// Count switches that have at least one switch child: they cannot be
	// co-located with server FPGAs and run on m4.16xlarge hosts.
	aggLike := 0
	root.each(func(n *NodeSpec) {
		for i := range n.Downlinks {
			if n.Downlinks[i].Switch != "" {
				aggLike++
				return
			}
		}
	})
	if aggLike > 0 {
		d.Add(hostplatform.M4_16XLarge, aggLike)
	}
	return d
}
