// The topology builder. Every instantiation of a target — a whole-cluster
// Deploy, the coordinator's root partition, a shard's units — runs the
// same two steps on one validated NodeSpec tree: assignIdentities numbers
// the servers of the FULL tree, and one pre-order walk instantiates the
// slice this process simulates. Deploy walks the tree with nothing cut.
// The root partition walks it with every cut point (CutUnits) replaced by
// a half-link to a down-bridge. A shard walks each hosted unit's subtree
// under an up-bridge. So names, MACs, IPs, seeds, MAC tables and the
// runner's Add/Connect order agree across all three, which is what keeps
// their checkpoint sections interchangeable.
package manager

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/faults"
	"repro/internal/snapshot"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
	"repro/internal/transport"
)

// normalizeConfig fills DeployConfig defaults; every builder must agree
// on them, so they share this.
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

// NodeIdentity is the deterministic identity assigned to one server:
// everything any process needs to know about the server — locally
// instantiated or not — to build MAC tables, ARP entries and workload
// destination rings that agree across a partitioned deployment.
type NodeIdentity struct {
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

// topoIdentities is the output of the assignment pass: server identities
// in depth-first order and, per node, the span of those identities its
// subtree holds. It is pure metadata — no simulation component is
// instantiated — so a partition builder can run the pass over the FULL
// topology and then instantiate only its slice, with MACs, IPs and seeds
// identical to a whole-cluster Deploy.
type topoIdentities struct {
	servers []*NodeIdentity
	spans   map[*NodeSpec]span
}

// span is the half-open range [lo, hi) of server indices below one node;
// a server's span holds just its own index.
type span struct{ lo, hi int }

// assignIdentities walks a validated tree depth-first, so MAC/IP
// assignment is stable under topology edits elsewhere in the tree.
func assignIdentities(root *NodeSpec, cfg DeployConfig) *topoIdentities {
	ids := &topoIdentities{spans: make(map[*NodeSpec]span)}
	var assign func(n *NodeSpec)
	assign = func(n *NodeSpec) {
		lo := len(ids.servers)
		if n.Server != "" {
			cores, _ := n.Blade.Cores()
			ids.servers = append(ids.servers, &NodeIdentity{
				Index: lo,
				Name:  n.Server,
				MAC:   ethernet.MAC(0x0200_0000_0000) + ethernet.MAC(lo+1),
				IP:    ethernet.IP(0x0a00_0000) + ethernet.IP(lo+1),
				Seed:  cfg.Seed + uint64(lo)*0x9e37,
				Cores: cores,
			})
		}
		for i := range n.Downlinks {
			assign(&n.Downlinks[i])
		}
		ids.spans[n] = span{lo, len(ids.servers)}
	}
	assign(root)
	return ids
}

// setMACTable installs the static MAC table for one switch: every server
// below downlink i maps to port i; everything else exits the uplink
// (uplink < 0 for the root).
func setMACTable(sw *switchmodel.Switch, s *NodeSpec, ids *topoIdentities, uplink int) {
	for i := range s.Downlinks {
		d := ids.spans[&s.Downlinks[i]]
		for _, id := range ids.servers[d.lo:d.hi] {
			sw.MACTable().Set(id.MAC, i)
		}
	}
	if uplink >= 0 {
		own := ids.spans[s]
		for _, id := range ids.servers[:own.lo] {
			sw.MACTable().Set(id.MAC, uplink)
		}
		for _, id := range ids.servers[own.hi:] {
			sw.MACTable().Set(id.MAC, uplink)
		}
	}
}

// unitTable registers the components of one checkpoint unit — a whole
// cluster, the root partition or one shard-hosted subtree — under their
// section names ("node/x", "switch/x"), plus the runner endpoints whose
// channels the unit's "links" section carries. Checkpoint restore and
// component hashing both run off this table.
type unitTable struct {
	comps    map[string]snapshot.Snapshotter
	sections []string // sorted
	members  map[string]bool
}

func newUnitTable() *unitTable {
	return &unitTable{comps: make(map[string]snapshot.Snapshotter), members: make(map[string]bool)}
}

// register records a component under its checkpoint section name.
func (t *unitTable) register(section string, s snapshot.Snapshotter) {
	t.comps[section] = s
	i := sort.SearchStrings(t.sections, section)
	t.sections = slices.Insert(t.sections, i, section)
}

// builder instantiates a topology, or one process's slice of it, through
// one walk. Every path adds and connects endpoints in the same order — a
// switch, then its downlinks in port order — because Runner.Save writes
// endpoint indices.
type builder struct {
	cfg      DeployConfig // normalized
	root     *NodeSpec
	ids      *topoIdentities
	topoHash uint64
	runner   *fame.Runner

	// cuts maps each cut point to its unit when building the root
	// partition; half and bridgeTimeout configure the bridges that
	// replace cut links.
	cuts          map[*NodeSpec]int
	half          clock.Cycles
	bridgeTimeout time.Duration
	bridges       map[int]*transport.Bridge

	servers  []*softstack.Node
	switches []*switchmodel.Switch
	targets  []faults.Target // blades and packed FPGAs, in wiring order
	tab      *unitTable      // the unit being built
}

// newBuilder numbers the full, validated tree and prepares an empty
// runner.
func newBuilder(root *NodeSpec, cfg DeployConfig) (*builder, error) {
	cfg = normalizeConfig(cfg)
	b := &builder{
		cfg:      cfg,
		root:     root,
		ids:      assignIdentities(root, cfg),
		topoHash: TopologyHash(*root, cfg),
		runner:   fame.NewRunner(),
		bridges:  make(map[int]*transport.Bridge),
		tab:      newUnitTable(),
	}
	if err := b.runner.SetWorkers(cfg.Workers); err != nil {
		return nil, err
	}
	return b, nil
}

// add puts an endpoint on the runner as a member of the unit being built.
func (b *builder) add(ep fame.Endpoint) {
	b.runner.Add(ep)
	b.tab.members[ep.Name()] = true
}

// node instantiates the server model for a blade and registers it.
func (b *builder) node(v *NodeSpec) *softstack.Node {
	id := b.ids.servers[b.ids.spans[v].lo]
	n := softstack.NewNode(softstack.Config{
		Name:  id.Name,
		MAC:   id.MAC,
		IP:    id.IP,
		Cores: id.Cores,
		Freq:  b.cfg.Freq,
		Seed:  id.Seed,
	})
	id.Node = n
	if !b.cfg.DisableStaticARP {
		// Assignment order is ascending IP order.
		for _, peer := range b.ids.servers {
			n.LearnARP(peer.IP, peer.MAC)
		}
	}
	b.servers = append(b.servers, n)
	b.tab.register("node/"+n.Name(), n)
	return n
}

// bridge creates the half-link bridge endpoint of a unit ("up" on the
// shard side, "down" on the root side).
func (b *builder) bridge(dir string, unit int) *transport.Bridge {
	br := transport.NewBridgeConfig(dir+"/"+UnitName(unit), nil, transport.BridgeConfig{
		ReadTimeout:  b.bridgeTimeout,
		TopologyHash: b.topoHash,
	})
	b.add(br)
	b.bridges[unit] = br
	return br
}

// attach instantiates subtree t and links its uplink port — a blade's
// only port, a switch's last — to the given port of parent.
func (b *builder) attach(t *NodeSpec, parent fame.Endpoint, port int, latency clock.Cycles) error {
	var ep fame.Endpoint
	if t.Server != "" {
		n := b.node(t)
		b.add(n)
		b.targets = append(b.targets, faults.Target{Name: n.Name(), Ports: 1, Kind: faults.NodeTarget})
		ep = n
	} else {
		sw, err := b.walkSwitch(t)
		if err != nil {
			return err
		}
		ep = sw
	}
	return b.runner.Connect(ep, ep.NumPorts()-1, parent, port, latency)
}

// walkSwitch instantiates switch s and every downlink below it that is
// not cut away. A switch has an uplink port, numbered after its
// downlinks, exactly when it is not the tree root.
func (b *builder) walkSwitch(s *NodeSpec) (*switchmodel.Switch, error) {
	ports, uplink := len(s.Downlinks), -1
	if s != b.root {
		uplink = ports
		ports++
	}
	sw := switchmodel.New(switchmodel.Config{
		Name:             s.Switch,
		Ports:            ports,
		SwitchingLatency: b.cfg.SwitchingLatency,
	})
	setMACTable(sw, s, b.ids, uplink)
	b.switches = append(b.switches, sw)
	b.add(sw)
	b.tab.register("switch/"+s.Switch, sw)

	var group []int // ports of sibling blades awaiting supernode packing
	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		err := b.pack(s, sw, group)
		group = group[:0]
		return err
	}
	for i := range s.Downlinks {
		var err error
		d := &s.Downlinks[i]
		unit, cut := b.cuts[d]
		switch {
		case cut:
			// The subtree is a shard-hosted unit.
			if err = flush(); err == nil {
				err = b.runner.Connect(b.bridge("down", unit), 0, sw, i, b.half)
			}
		case d.Server != "" && b.cfg.Supernode:
			if group = append(group, i); len(group) == 4 {
				err = flush()
			}
		default:
			if err = flush(); err == nil {
				err = b.attach(d, sw, i, b.cfg.LinkLatency)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return sw, flush()
}

// pack wires sibling blades below switch s. A lone blade links straight
// to its port; two to four are FAME-5-multiplexed onto one host pipeline
// (one FPGA), exactly the packing of Section III-A5. The composite is
// functionally indistinguishable from the blades running standalone
// (asserted by tests).
func (b *builder) pack(s *NodeSpec, sw *switchmodel.Switch, ports []int) error {
	if len(ports) == 1 {
		return b.attach(&s.Downlinks[ports[0]], sw, ports[0], b.cfg.LinkLatency)
	}
	eps := make([]fame.Endpoint, len(ports))
	for k, port := range ports {
		eps[k] = b.node(&s.Downlinks[port])
	}
	m := fame.NewMultiplex(fmt.Sprintf("%s-fpga%d", s.Switch, ports[0]/4), eps...)
	b.add(m)
	for k, port := range ports {
		if err := b.runner.Connect(m, m.PortOf(k, 0), sw, port, b.cfg.LinkLatency); err != nil {
			return err
		}
	}
	// Faults are injected at runner endpoints, so the FPGA-level
	// multiplex — not the individual blade — is the failure domain in
	// supernode mode: a NodeFreeze takes out all four packed blades, like
	// a host FPGA dying would.
	b.targets = append(b.targets, faults.Target{Name: m.Name(), Ports: m.NumPorts(), Kind: faults.NodeTarget})
	return nil
}
