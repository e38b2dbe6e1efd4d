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
// Every process runs the builder Deploy uses (builder.go) on the spec's
// one NodeSpec tree, which numbers the FULL tree before instantiating its
// slice, so names, MACs, IPs, seeds and MAC tables agree everywhere
// without any cross-process negotiation.
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
// downlink, numbered by port). The units point into root's downlinks,
// which a copy of root shares, so a builder walking root meets them.
func CutUnits(root NodeSpec, cutLevel int) []*NodeSpec {
	var units []*NodeSpec
	var walk func(s *NodeSpec, depth int)
	walk = func(s *NodeSpec, depth int) {
		for i := range s.Downlinks {
			d := &s.Downlinks[i]
			if d.Server != "" || depth+1 >= cutLevel {
				units = append(units, d)
				continue
			}
			walk(d, depth+1)
		}
	}
	walk(&root, 0)
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

	units map[int]*unitTable // hosted (shard) or RootUnit (root) → its components
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
	b, err := newBuilder(&root, cfg)
	if err != nil {
		return nil, err
	}
	if b.cfg.LinkLatency%2 != 0 {
		return nil, fmt.Errorf("manager: partition: link latency %d must be even (cut links split into halves)", b.cfg.LinkLatency)
	}
	b.half, b.bridgeTimeout = b.cfg.LinkLatency/2, bridgeTimeout
	p := &Partition{
		Runner:      b.runner,
		Bridges:     b.bridges,
		IsRoot:      len(units) == 0,
		TopoHash:    b.topoHash,
		LinkLatency: b.cfg.LinkLatency,
		parallel:    spec.Parallel,
		units:       make(map[int]*unitTable),
	}

	cuts := CutUnits(root, spec.CutLevel)
	if p.IsRoot {
		// Root partition: every switch above the cut, with a half-link
		// down-bridge at each cut point. Retained inner switches keep
		// their uplink port toward their parent exactly as a
		// whole-cluster Deploy wires them, so checkpoint sections stay
		// interchangeable.
		b.cuts = make(map[*NodeSpec]int, len(cuts))
		for unit, t := range cuts {
			b.cuts[t] = unit
			p.Units = append(p.Units, unit)
		}
		if _, err := b.walkSwitch(b.root); err != nil {
			return nil, err
		}
		p.units[RootUnit] = b.tab
	} else {
		for _, unit := range units {
			if unit < 0 || unit >= len(cuts) {
				return nil, fmt.Errorf("manager: partition: unit %d out of range (cut level %d yields %d units)", unit, spec.CutLevel, len(cuts))
			}
			if p.units[unit] != nil {
				return nil, fmt.Errorf("manager: partition: unit %d assigned twice", unit)
			}
			// A shard hosts each unit's whole subtree under an up-bridge
			// toward the root.
			b.tab = newUnitTable()
			if err := b.attach(cuts[unit], b.bridge("up", unit), 0, b.half); err != nil {
				return nil, err
			}
			p.units[unit] = b.tab
			p.Units = append(p.Units, unit)
		}
		if err := spec.Workload.Apply(b.ids.servers); err != nil {
			return nil, err
		}
	}
	p.Servers, p.Switches = b.servers, b.switches

	p.Step = p.Runner.Step()
	if p.Step != b.half {
		return nil, fmt.Errorf("manager: partition: step %d, want half-link %d", p.Step, b.half)
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
	tab, ok := p.units[unit]
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
	for _, sec := range tab.sections {
		sw.Section(sec)
		if err := tab.comps[sec].Save(sw); err != nil {
			return err
		}
	}
	sw.Section("links")
	if err := p.Runner.SaveChannels(sw, func(name string) bool { return tab.members[name] }); err != nil {
		return err
	}
	return sw.Close()
}

// RestoreUnit loads one unit's checkpoint into the hosted topology and
// returns the cycle it was taken at. It does NOT move target time: after
// restoring every hosted unit to the same cycle, finish with
// Runner.SetCycle — split so a multi-unit shard restores unit by unit.
// Sections are looked up in the unit's own components only, so a stream
// that carries another unit's section is refused.
func (p *Partition) RestoreUnit(data []byte, unit int) (uint64, error) {
	tab, ok := p.units[unit]
	if !ok {
		return 0, fmt.Errorf("manager: partition: unit %d not hosted here", unit)
	}
	return restoreSections(bytes.NewReader(data), p.TopoHash, p.Step, tab, "links", func(rd *snapshot.Reader) error {
		return p.Runner.RestoreChannels(rd, func(name string) bool { return tab.members[name] })
	})
}

// UnitHashes digests every hosted component's full serialized state —
// keyed "node/x"/"switch/x", the same keys Cluster.ComponentHashes
// produces — so a distributed run's state can be compared bit-for-bit
// against a whole-cluster reference regardless of how units were packed
// onto processes.
func (p *Partition) UnitHashes() (map[string]uint64, error) {
	var tabs []*unitTable
	for _, unit := range p.storeUnits() {
		tabs = append(tabs, p.units[unit])
	}
	return hashComponents(p.TopoHash, p.Runner.Cycle(), tabs...)
}
