package manager

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/clock"
	"repro/internal/ethernet"
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
	// Costs overrides the modeled kernel constants (zero = defaults).
	Costs softstack.Costs
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

	byName map[string]*softstack.Node
}

// NodeByName returns the named server, or nil.
func (c *Cluster) NodeByName(name string) *softstack.Node { return c.byName[name] }

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

// normalizeConfig fills DeployConfig defaults; Deploy and the partition
// builders must agree on them, so they share this.
func normalizeConfig(cfg DeployConfig) DeployConfig {
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = 6400 // 2 us at 3.2 GHz
	}
	if cfg.SwitchingLatency == 0 {
		cfg.SwitchingLatency = switchmodel.DefaultSwitchingLatency
	}
	if cfg.Freq == 0 {
		cfg.Freq = clock.DefaultTargetClock
	}
	return cfg
}

// NodeIdentity is the deterministic identity pass 1 assigns to one
// server: everything any process needs to know about the server —
// locally instantiated or not — to build MAC tables, ARP entries and
// workload destination rings that agree across a partitioned deployment.
type NodeIdentity struct {
	Spec  *ServerNode
	Index int // assignment (depth-first) order
	Name  string
	MAC   ethernet.MAC
	IP    ethernet.IP
	Seed  uint64
	Cores int
	// Node is the instantiated model, nil for servers some other process
	// hosts.
	Node *softstack.Node
}

// instantiate creates the server model for this identity.
func (id *NodeIdentity) instantiate(cfg DeployConfig) *softstack.Node {
	id.Node = softstack.NewNode(softstack.Config{
		Name:  id.Name,
		MAC:   id.MAC,
		IP:    id.IP,
		Cores: id.Cores,
		Freq:  cfg.Freq,
		Costs: cfg.Costs,
		Seed:  id.Seed,
	})
	return id.Node
}

// topoIdentities is the output of the shared assignment passes: server
// identities in depth-first order, the ARP map, and per-subtree MAC
// lists for switch MAC-table construction. It is pure metadata — no
// simulation component is instantiated — so a partition builder can run
// the passes over the FULL topology and then instantiate only its slice,
// with names, MACs, IPs and seeds identical to a whole-cluster Deploy.
type topoIdentities struct {
	servers     []*NodeIdentity
	bySpec      map[*ServerNode]*NodeIdentity
	macs        []ethernet.MAC
	arp         map[ethernet.IP]ethernet.MAC
	subtreeMACs map[TopoNode][]ethernet.MAC
}

// assignIdentities is pass 1: depth-first server identity assignment, so
// MAC/IP assignment is stable under topology edits elsewhere in the
// tree. Empty server names are filled in on the spec tree itself (the
// names are part of the deployment's identity).
func assignIdentities(root *SwitchNode, cfg DeployConfig) *topoIdentities {
	ids := &topoIdentities{
		bySpec:      make(map[*ServerNode]*NodeIdentity),
		arp:         make(map[ethernet.IP]ethernet.MAC),
		subtreeMACs: make(map[TopoNode][]ethernet.MAC),
	}
	idx := 0
	var assign func(t TopoNode)
	assign = func(t TopoNode) {
		switch v := t.(type) {
		case *SwitchNode:
			for _, d := range v.Downlinks {
				assign(d)
			}
		case *ServerNode:
			mac := ethernet.MAC(0x0200_0000_0000) + ethernet.MAC(idx+1)
			ip := ethernet.IP(0x0a00_0000) + ethernet.IP(idx+1)
			if v.Name == "" {
				v.Name = fmt.Sprintf("server%d", idx)
			}
			cores, _ := v.Type.Cores()
			id := &NodeIdentity{
				Spec:  v,
				Index: idx,
				Name:  v.Name,
				MAC:   mac,
				IP:    ip,
				Seed:  cfg.Seed + uint64(idx)*0x9e37,
				Cores: cores,
			}
			ids.bySpec[v] = id
			ids.servers = append(ids.servers, id)
			ids.macs = append(ids.macs, mac)
			ids.arp[ip] = mac
			idx++
		}
	}
	assign(root)

	var collectMACs func(t TopoNode) []ethernet.MAC
	collectMACs = func(t TopoNode) []ethernet.MAC {
		if m, ok := ids.subtreeMACs[t]; ok {
			return m
		}
		var out []ethernet.MAC
		switch v := t.(type) {
		case *ServerNode:
			out = []ethernet.MAC{ids.bySpec[v].MAC}
		case *SwitchNode:
			for _, d := range v.Downlinks {
				out = append(out, collectMACs(d)...)
			}
		}
		ids.subtreeMACs[t] = out
		return out
	}
	collectMACs(root)
	return ids
}

// assignSwitchNames fills empty switch names in pre-order — the same
// order Deploy's recursive build visits them — so every process derives
// identical names from the same tree.
func assignSwitchNames(root *SwitchNode) {
	idx := 0
	var walk func(s *SwitchNode)
	walk = func(s *SwitchNode) {
		if s.Name == "" {
			s.Name = fmt.Sprintf("switch%d", idx)
		}
		idx++
		for _, d := range s.Downlinks {
			if sw, ok := d.(*SwitchNode); ok {
				walk(sw)
			}
		}
	}
	walk(root)
}

// seedStaticARP seeds the full cluster's ARP entries into the given
// nodes in a fixed order (nodes in assignment order, entries by
// ascending IP) rather than by map iteration, so every deployment of the
// same topology performs the identical sequence of operations.
func seedStaticARP(nodes []*softstack.Node, arp map[ethernet.IP]ethernet.MAC) {
	ips := make([]ethernet.IP, 0, len(arp))
	for ip := range arp {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, n := range nodes {
		for _, ip := range ips {
			n.LearnARP(ip, arp[ip])
		}
	}
}

// setMACTable installs the static MAC table for one switch: every server
// below downlink i maps to port i; everything else exits the uplink
// (uplink < 0 for the root).
func setMACTable(sw *switchmodel.Switch, s *SwitchNode, ids *topoIdentities, uplink int) {
	below := make(map[ethernet.MAC]bool)
	for i, d := range s.Downlinks {
		for _, m := range ids.subtreeMACs[d] {
			sw.MACTable().Set(m, i)
			below[m] = true
		}
	}
	if uplink >= 0 {
		for _, m := range ids.macs {
			if !below[m] {
				sw.MACTable().Set(m, uplink)
			}
		}
	}
}

// Deploy validates, builds, maps and instantiates the topology.
func Deploy(root *SwitchNode, cfg DeployConfig) (*Cluster, error) {
	if err := Validate(root); err != nil {
		return nil, err
	}
	cfg = normalizeConfig(cfg)

	farm := NewBuildFarm()
	images, err := farm.BuildAll(root, cfg.Supernode)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Images:      images,
		LinkLatency: cfg.LinkLatency,
		byName:      make(map[string]*softstack.Node),
		Runner:      fame.NewRunner(),
	}
	if err := c.Runner.SetWorkers(cfg.Workers); err != nil {
		return nil, err
	}

	// Pass 1 (shared with the partition builders): deterministic server
	// identities over the full tree, then instantiate every one.
	ids := assignIdentities(root, cfg)
	for _, id := range ids.servers {
		id.instantiate(cfg)
	}
	if !cfg.DisableStaticARP {
		nodes := make([]*softstack.Node, len(ids.servers))
		for i, id := range ids.servers {
			nodes[i] = id.Node
		}
		seedStaticARP(nodes, ids.arp)
	}

	// Pass 2: create switches and wire everything. Each switch has one
	// port per downlink plus an uplink port (except the root).
	type swInst struct {
		spec   *SwitchNode
		sw     *switchmodel.Switch
		uplink int // uplink port index, or -1 for root
	}
	var switches []*swInst

	swIdx := 0
	var faultTargets []faults.Target
	var build func(s *SwitchNode, isRoot bool) (*swInst, error)
	build = func(s *SwitchNode, isRoot bool) (*swInst, error) {
		ports := len(s.Downlinks)
		uplink := -1
		if !isRoot {
			uplink = ports
			ports++
		}
		if s.Name == "" {
			s.Name = fmt.Sprintf("switch%d", swIdx)
		}
		swIdx++
		sw := switchmodel.New(switchmodel.Config{
			Name:             s.Name,
			Ports:            ports,
			SwitchingLatency: cfg.SwitchingLatency,
		})
		inst := &swInst{spec: s, sw: sw, uplink: uplink}
		switches = append(switches, inst)
		c.Runner.Add(sw)
		setMACTable(sw, s, ids, uplink)

		// Wire downlinks. In supernode mode, groups of up to four sibling
		// blades are FAME-5-multiplexed onto one host pipeline (one FPGA),
		// exactly the packing of Section III-A5; the composite is
		// functionally indistinguishable from the blades running
		// standalone (asserted by tests).
		type pendingServer struct {
			node *softstack.Node
			port int
		}
		var group []pendingServer
		flushGroup := func() error {
			if len(group) == 0 {
				return nil
			}
			if !cfg.Supernode || len(group) == 1 {
				for _, p := range group {
					c.Runner.Add(p.node)
					if err := c.Runner.Connect(p.node, 0, sw, p.port, cfg.LinkLatency); err != nil {
						return err
					}
					faultTargets = append(faultTargets, faults.Target{
						Name: p.node.Name(), Ports: 1, Kind: faults.NodeTarget,
					})
				}
			} else {
				eps := make([]fame.Endpoint, len(group))
				for i, p := range group {
					eps[i] = p.node
				}
				m := fame.NewMultiplex(fmt.Sprintf("%s-fpga%d", s.Name, group[0].port/4), eps...)
				c.Runner.Add(m)
				for i, p := range group {
					if err := c.Runner.Connect(m, m.PortOf(i, 0), sw, p.port, cfg.LinkLatency); err != nil {
						return err
					}
				}
				// Faults are injected at runner endpoints, so the FPGA-level
				// multiplex — not the individual blade — is the failure
				// domain in supernode mode: a NodeFreeze takes out all four
				// packed blades, like a host FPGA dying would.
				faultTargets = append(faultTargets, faults.Target{
					Name: m.Name(), Ports: m.NumPorts(), Kind: faults.NodeTarget,
				})
			}
			group = group[:0]
			return nil
		}
		for i, d := range s.Downlinks {
			switch v := d.(type) {
			case *ServerNode:
				node := ids.bySpec[v].Node
				group = append(group, pendingServer{node: node, port: i})
				if len(group) == 4 {
					if err := flushGroup(); err != nil {
						return nil, err
					}
				}
				c.Servers = append(c.Servers, node)
				c.byName[node.Name()] = node
			case *SwitchNode:
				if err := flushGroup(); err != nil {
					return nil, err
				}
				child, err := build(v, false)
				if err != nil {
					return nil, err
				}
				if err := c.Runner.Connect(child.sw, child.uplink, sw, i, cfg.LinkLatency); err != nil {
					return nil, err
				}
			}
		}
		if err := flushGroup(); err != nil {
			return nil, err
		}
		return inst, nil
	}
	if _, err := build(root, true); err != nil {
		return nil, err
	}
	for _, si := range switches {
		c.Switches = append(c.Switches, si.sw)
		faultTargets = append(faultTargets, faults.Target{
			Name: si.sw.Name(), Ports: si.sw.NumPorts(), Kind: faults.SwitchTarget,
		})
	}

	if err := c.wireFaults(cfg, faultTargets); err != nil {
		return nil, err
	}

	c.Deployment = planDeployment(root, cfg.Supernode)
	// Hash after passes 1 and 2 so auto-assigned names are included.
	c.TopoHash = TopologyHash(root, cfg)
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
func TopologyHash(root *SwitchNode, cfg DeployConfig) uint64 {
	h := fnv.New64a()
	write := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = 6400
	}
	write(fmt.Sprintf("link=%d supernode=%v", cfg.LinkLatency, cfg.Supernode))
	var walk func(t TopoNode)
	walk = func(t TopoNode) {
		switch v := t.(type) {
		case *SwitchNode:
			write("sw " + v.Name)
			for _, d := range v.Downlinks {
				walk(d)
			}
			write("end")
		case *ServerNode:
			write("srv " + v.Name + " " + string(v.Type))
		}
	}
	walk(root)
	return h.Sum64()
}

// planDeployment maps the topology onto EC2 instances: ToR switches and
// their servers go to f1.16xlarge instances (8 FPGAs each, 1 or 4 nodes
// per FPGA), while aggregation and root switch models get m4.16xlarge
// instances — the mapping of Figure 2 and Section V-C.
func planDeployment(root *SwitchNode, supernode bool) *hostplatform.Deployment {
	d := hostplatform.NewDeployment()
	nodesPerFPGA := 1
	if supernode {
		nodesPerFPGA = 4
	}
	servers := CountServers(root)
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
	var walk func(t TopoNode)
	walk = func(t TopoNode) {
		if v, ok := t.(*SwitchNode); ok {
			hasSwitchChild := false
			for _, c := range v.Downlinks {
				if _, isSwitch := c.(*SwitchNode); isSwitch {
					hasSwitchChild = true
				}
				walk(c)
			}
			if hasSwitchChild {
				aggLike++
			}
		}
	}
	walk(root)
	if aggLike > 0 {
		d.Add(hostplatform.M4_16XLarge, aggLike)
	}
	return d
}
