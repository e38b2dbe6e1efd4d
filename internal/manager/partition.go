// Partitioned deployment for multi-process runs. The full cluster is cut
// at a configurable tree level (ClusterSpec.CutLevel): every link from a
// switch above the cut to a subtree below it is severed, each severed
// subtree is a partition UNIT, a shard process hosts one or more units,
// and the coordinator hosts every switch above the cut (just the root
// switch at the default level 1; root plus aggregation switches at level
// 2, which shards the paper's 1024-node tree into 32 ToR units regardless
// of the root's radix). Every cut link of latency L is split into two
// half-links of L/2 — one in each process — joined by a transport.Bridge
// pair whose synchronous batch exchange contributes zero target latency,
// so the end-to-end latency every token observes is exactly L and the
// partitioned simulation is bit-identical to a whole-cluster Deploy (the
// paper's token-protocol guarantee, stretched across process
// boundaries). The star shape means shards only ever dial the
// coordinator: no shard↔shard connections to manage or to fail.
//
// Identity comes from the same assignment passes Deploy runs
// (assignIdentities/assignSwitchNames) executed over the FULL tree in
// every process, so names, MACs, IPs, seeds and MAC tables agree
// everywhere without any cross-process negotiation.
package manager

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/snapshot"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
	"repro/internal/transport"
)

// RootUnit is the pseudo-unit id of the coordinator's root partition in
// store/checkpoint APIs (real units are cut indices >= 0, in CutUnits
// order).
const RootUnit = -1

// CutUnits enumerates the subtree roots of every partition unit a cut at
// cutLevel produces, in deterministic pre-order. The cut severs every
// link from a depth cutLevel-1 switch down to its subtrees; a server
// hanging above the cut level becomes its own single-node unit, so the
// coordinator's partition always contains only switches. cutLevel <= 1
// reproduces the historical root-downlink units (one unit per root
// downlink, numbered by port).
func CutUnits(root *SwitchNode, cutLevel int) []TopoNode {
	if cutLevel < 1 {
		cutLevel = 1
	}
	var units []TopoNode
	var walk func(s *SwitchNode, depth int)
	walk = func(s *SwitchNode, depth int) {
		for _, d := range s.Downlinks {
			sub, isSwitch := d.(*SwitchNode)
			if !isSwitch || depth+1 >= cutLevel {
				units = append(units, d)
				continue
			}
			walk(sub, depth+1)
		}
	}
	walk(root, 0)
	return units
}

// UnitName names a partition unit for bridges, stores and diagnostics.
func UnitName(unit int) string {
	if unit == RootUnit {
		return "root"
	}
	return fmt.Sprintf("sub%d", unit)
}

// Partition is one process's slice of a partitioned cluster: either the
// coordinator's root partition (the root switch plus one down-bridge per
// unit) or a shard partition (one or more fully instantiated subtrees,
// each with an up-bridge toward the root).
type Partition struct {
	Runner      *fame.Runner
	Servers     []*softstack.Node
	Switches    []*switchmodel.Switch
	Bridges     map[int]*transport.Bridge // unit → bridge endpoint
	Units       []int                     // real units hosted (shard) or bridged (root), ascending
	IsRoot      bool
	TopoHash    uint64 // full-tree hash: both sides of every bridge carry it
	Step        clock.Cycles
	LinkLatency clock.Cycles
	parallel    bool

	comps       map[string]snapshot.Snapshotter // "node/x" / "switch/x"
	unitComps   map[int][]string                // unit → sorted component section names
	unitMembers map[int]map[string]bool         // unit → endpoint names (incl. bridge)
}

// BuildPartition instantiates the slice of spec's cluster given by
// units. nil units builds the ROOT partition. Bridges are created
// detached (no connection); attach each with AttachBridge once the token
// plane is dialed. bridgeTimeout bounds every token batch read — it must
// comfortably exceed the coordinator's watchdog deadlines, so failures
// are detected by supervision (and the token conns actively closed), not
// by every healthy bridge timing out first.
func BuildPartition(spec ClusterSpec, units []int, bridgeTimeout time.Duration) (*Partition, error) {
	root, cfg, err := spec.Topology()
	if err != nil {
		return nil, err
	}
	cfg = normalizeConfig(cfg)
	if cfg.LinkLatency%2 != 0 {
		return nil, fmt.Errorf("manager: partition: link latency %d must be even (cut links split into halves)", cfg.LinkLatency)
	}
	half := cfg.LinkLatency / 2
	ids := assignIdentities(root, cfg)
	topoHash := TopologyHash(root, cfg)

	p := &Partition{
		Runner:      fame.NewRunner(),
		Bridges:     make(map[int]*transport.Bridge),
		IsRoot:      len(units) == 0,
		TopoHash:    topoHash,
		LinkLatency: cfg.LinkLatency,
		parallel:    spec.Parallel,
		comps:       make(map[string]snapshot.Snapshotter),
		unitComps:   make(map[int][]string),
		unitMembers: make(map[int]map[string]bool),
	}
	if err := p.Runner.SetWorkers(cfg.Workers); err != nil {
		return nil, err
	}
	newBridge := func(name string) *transport.Bridge {
		return transport.NewBridgeConfig(name, nil, transport.BridgeConfig{
			ReadTimeout:  bridgeTimeout,
			TopologyHash: topoHash,
		})
	}

	cuts := CutUnits(root, spec.CutLevel)
	cutLevel := spec.CutLevel
	if cutLevel < 1 {
		cutLevel = 1
	}

	if p.IsRoot {
		// Root partition: every switch above the cut, joined by
		// full-latency internal links, with one half-link bridge per cut
		// point. Uplink -1 at the root (its MAC table maps every server
		// to a downlink port); retained inner switches keep their uplink
		// port toward their parent exactly as a whole-cluster Deploy
		// wires them, so checkpoint sections stay interchangeable.
		members := make(map[string]bool)
		var sections []string
		nextCut := 0
		var buildAbove func(s *SwitchNode, depth int) (*switchmodel.Switch, int, error)
		buildAbove = func(s *SwitchNode, depth int) (*switchmodel.Switch, int, error) {
			uplink := -1
			ports := len(s.Downlinks)
			if depth > 0 {
				uplink = len(s.Downlinks)
				ports++
			}
			sw := switchmodel.New(switchmodel.Config{
				Name:             s.Name,
				Ports:            ports,
				SwitchingLatency: cfg.SwitchingLatency,
			})
			setMACTable(sw, s, ids, uplink)
			p.Runner.Add(sw)
			p.Switches = append(p.Switches, sw)
			sec := "switch/" + sw.Name()
			p.comps[sec] = sw
			sections = append(sections, sec)
			members[sw.Name()] = true
			for i, d := range s.Downlinks {
				child, isSwitch := d.(*SwitchNode)
				if !isSwitch || depth+1 >= cutLevel {
					// Cut point: this subtree is a shard-hosted unit.
					// Enumeration order matches CutUnits (same DFS).
					unit := nextCut
					nextCut++
					br := newBridge("down/" + UnitName(unit))
					p.Runner.Add(br)
					if err := p.Runner.Connect(br, 0, sw, i, half); err != nil {
						return nil, 0, err
					}
					p.Bridges[unit] = br
					p.Units = append(p.Units, unit)
					members[br.Name()] = true
					continue
				}
				cs, cup, err := buildAbove(child, depth+1)
				if err != nil {
					return nil, 0, err
				}
				if err := p.Runner.Connect(cs, cup, sw, i, cfg.LinkLatency); err != nil {
					return nil, 0, err
				}
			}
			return sw, uplink, nil
		}
		if _, _, err := buildAbove(root, 0); err != nil {
			return nil, err
		}
		sort.Strings(sections)
		p.unitComps[RootUnit] = sections
		p.unitMembers[RootUnit] = members
	} else {
		seen := make(map[int]bool)
		for _, unit := range units {
			if unit < 0 || unit >= len(cuts) {
				return nil, fmt.Errorf("manager: partition: unit %d out of range (cut level %d yields %d units)", unit, cutLevel, len(cuts))
			}
			if seen[unit] {
				return nil, fmt.Errorf("manager: partition: unit %d assigned twice", unit)
			}
			seen[unit] = true
			members := make(map[string]bool)
			var sections []string

			addNode := func(v *ServerNode) (*softstack.Node, error) {
				id := ids.bySpec[v]
				n := id.instantiate(cfg)
				seedStaticARP([]*softstack.Node{n}, ids.arp)
				p.Runner.Add(n)
				p.Servers = append(p.Servers, n)
				sec := "node/" + n.Name()
				p.comps[sec] = n
				sections = append(sections, sec)
				members[n.Name()] = true
				return n, nil
			}
			var buildSub func(s *SwitchNode) (*switchmodel.Switch, int, error)
			buildSub = func(s *SwitchNode) (*switchmodel.Switch, int, error) {
				uplink := len(s.Downlinks)
				sw := switchmodel.New(switchmodel.Config{
					Name:             s.Name,
					Ports:            uplink + 1,
					SwitchingLatency: cfg.SwitchingLatency,
				})
				setMACTable(sw, s, ids, uplink)
				p.Runner.Add(sw)
				p.Switches = append(p.Switches, sw)
				sec := "switch/" + sw.Name()
				p.comps[sec] = sw
				sections = append(sections, sec)
				members[sw.Name()] = true
				for i, d := range s.Downlinks {
					switch v := d.(type) {
					case *ServerNode:
						n, err := addNode(v)
						if err != nil {
							return nil, 0, err
						}
						if err := p.Runner.Connect(n, 0, sw, i, cfg.LinkLatency); err != nil {
							return nil, 0, err
						}
					case *SwitchNode:
						child, childUp, err := buildSub(v)
						if err != nil {
							return nil, 0, err
						}
						if err := p.Runner.Connect(child, childUp, sw, i, cfg.LinkLatency); err != nil {
							return nil, 0, err
						}
					}
				}
				return sw, uplink, nil
			}

			br := newBridge("up/" + UnitName(unit))
			p.Runner.Add(br)
			p.Bridges[unit] = br
			members[br.Name()] = true
			switch v := cuts[unit].(type) {
			case *ServerNode:
				n, err := addNode(v)
				if err != nil {
					return nil, err
				}
				if err := p.Runner.Connect(n, 0, br, 0, half); err != nil {
					return nil, err
				}
			case *SwitchNode:
				top, up, err := buildSub(v)
				if err != nil {
					return nil, err
				}
				if err := p.Runner.Connect(top, up, br, 0, half); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("manager: partition: unit %d has unknown node type %T", unit, cuts[unit])
			}
			sort.Strings(sections)
			p.unitComps[unit] = sections
			p.unitMembers[unit] = members
			p.Units = append(p.Units, unit)
		}
		if spec.Workload != nil {
			if err := spec.Workload.Apply(ids.servers); err != nil {
				return nil, err
			}
		}
	}

	p.Step = p.Runner.Step()
	if p.Step != half {
		return nil, fmt.Errorf("manager: partition: step %d, want half-link %d", p.Step, half)
	}
	sort.Ints(p.Units)
	return p, nil
}

// AttachBridge binds a unit's bridge to a live token connection,
// resuming the batch sequence at the given cycle (a bridge exchanges one
// batch per Step).
func (p *Partition) AttachBridge(unit int, conn io.ReadWriter, cycle uint64) error {
	br, ok := p.Bridges[unit]
	if !ok {
		return fmt.Errorf("manager: partition: no bridge for unit %d", unit)
	}
	br.Reset(conn, cycle/uint64(p.Step))
	return nil
}

// CloseBridges closes every bridge (and its connection), unblocking any
// in-flight token exchange immediately.
func (p *Partition) CloseBridges() {
	for _, br := range p.Bridges {
		br.Close()
	}
}

// BridgeErr returns the first latched bridge error in unit order, if any
// — checked after every slice, because a dead bridge degrades to silence
// rather than halting the runner.
func (p *Partition) BridgeErr() error {
	for _, u := range p.Units {
		if err := p.Bridges[u].Err(); err != nil {
			return err
		}
	}
	return nil
}

// RunSlice advances the partition by the given cycles (a multiple of
// Step), using the scheduler the spec selects, and then surfaces any
// bridge failure the slice swallowed.
func (p *Partition) RunSlice(cycles clock.Cycles) error {
	var err error
	if p.parallel {
		err = p.Runner.RunParallel(cycles)
	} else {
		err = p.Runner.Run(cycles)
	}
	if err != nil {
		return err
	}
	return p.BridgeErr()
}

// storeUnit resolves which checkpoint-unit id covers local state: the
// root partition checkpoints as one pseudo-unit, shards per real unit.
func (p *Partition) storeUnits() []int {
	if p.IsRoot {
		return []int{RootUnit}
	}
	return append([]int(nil), p.Units...)
}

// SaveUnit streams one unit's checkpoint: a header stamped with the full
// tree's hash, one section per component, and the unit's in-flight
// channel tokens (keyed by endpoint name, so the stream survives the
// unit moving to a process hosting a different unit mix).
func (p *Partition) SaveUnit(w io.Writer, unit int) error {
	sections, ok := p.unitComps[unit]
	if !ok {
		return fmt.Errorf("manager: partition: unit %d not hosted here", unit)
	}
	sw, err := snapshot.NewWriter(w, snapshot.Header{
		TopologyHash: p.TopoHash,
		Cycle:        uint64(p.Runner.Cycle()),
		Step:         uint64(p.Step),
	})
	if err != nil {
		return err
	}
	for _, sec := range sections {
		sw.Section(sec)
		if err := p.comps[sec].Save(sw); err != nil {
			return err
		}
	}
	sw.Section("links")
	members := p.unitMembers[unit]
	if err := p.Runner.SaveChannels(sw, func(name string) bool { return members[name] }); err != nil {
		return err
	}
	return sw.Close()
}

// RestoreUnit loads one unit's checkpoint into the hosted topology and
// returns the cycle it was taken at. It does NOT move target time: after
// restoring every hosted unit to the same cycle, finish with
// Runner.SetCycle — split so a multi-unit shard restores unit by unit.
func (p *Partition) RestoreUnit(data []byte, unit int) (uint64, error) {
	members, ok := p.unitMembers[unit]
	if !ok {
		return 0, fmt.Errorf("manager: partition: unit %d not hosted here", unit)
	}
	rd, h, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	if h.TopologyHash != p.TopoHash {
		return 0, fmt.Errorf("manager: partition: checkpoint topology hash %#x, deployment %#x", h.TopologyHash, p.TopoHash)
	}
	if h.Step != uint64(p.Step) {
		return 0, fmt.Errorf("manager: partition: checkpoint step %d, partition step %d", h.Step, p.Step)
	}
	restored := make(map[string]bool)
	for {
		name, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if restored[name] {
			return 0, fmt.Errorf("manager: partition: checkpoint repeats section %q", name)
		}
		if name == "links" {
			if err := p.Runner.RestoreChannels(rd, func(n string) bool { return members[n] }); err != nil {
				return 0, err
			}
		} else {
			s, ok := p.comps[name]
			if !ok {
				return 0, fmt.Errorf("manager: partition: checkpoint section %q not hosted here", name)
			}
			if err := s.Restore(rd); err != nil {
				return 0, err
			}
		}
		restored[name] = true
	}
	if !restored["links"] {
		return 0, fmt.Errorf("manager: partition: checkpoint missing links section")
	}
	for _, sec := range p.unitComps[unit] {
		if !restored[sec] {
			return 0, fmt.Errorf("manager: partition: checkpoint missing section %q", sec)
		}
	}
	return h.Cycle, nil
}

// UnitHashes digests every hosted component's full serialized state —
// keyed "node/x"/"switch/x", the same keys Cluster.ComponentHashes
// produces — so a distributed run's state can be compared bit-for-bit
// against a whole-cluster reference regardless of how units were packed
// onto processes.
func (p *Partition) UnitHashes() (map[string]uint64, error) {
	out := make(map[string]uint64, len(p.comps))
	for sec, s := range p.comps {
		h, err := componentHash(p.TopoHash, p.Runner.Cycle(), sec, s)
		if err != nil {
			return nil, fmt.Errorf("manager: hash %q: %w", sec, err)
		}
		out[sec] = h
	}
	return out, nil
}
