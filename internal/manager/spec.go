// ClusterSpec is the wire-serializable description of a deployment: the
// topology tree plus the deterministic knobs of DeployConfig. The
// coordinator of a multi-process run sends it to every shard process,
// which rebuilds its partition from the spec — both sides must derive
// identical names, MACs, IPs and seeds, so the spec round-trips through
// the exact same assignment passes Deploy uses.
package manager

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/ethernet"
)

// NodeSpec is one topology node in serializable form. Exactly one of
// Switch/Server is set (switches carry downlinks, servers a blade type).
type NodeSpec struct {
	Switch    string     `json:"switch,omitempty"`
	Server    string     `json:"server,omitempty"`
	Blade     string     `json:"blade,omitempty"`
	Downlinks []NodeSpec `json:"downlinks,omitempty"`
}

// WorkloadSpec names a deterministic workload every process of a
// distributed run applies to its own nodes. Kind "stream" starts a paced
// raw Ethernet stream on every node i toward node (i+1) mod N — chosen
// because it is serializable (the generator is part of node checkpoints)
// and exercises every link through the root.
type WorkloadSpec struct {
	Kind       string  `json:"kind"`
	StartAt    uint64  `json:"startAt"`
	FrameBytes int     `json:"frameBytes"`
	Gbps       float64 `json:"gbps"`
	StopAt     uint64  `json:"stopAt"`
}

// ClusterSpec carries everything a process needs to build its slice of
// the simulation. Fault injection and supernode packing are deliberately
// absent: neither is supported in distributed runs (the fault plan hooks
// the whole-cluster runner, and supernode multiplexing would straddle the
// partition boundary).
type ClusterSpec struct {
	Root             NodeSpec      `json:"root"`
	LinkLatency      uint64        `json:"linkLatency"`
	SwitchingLatency uint64        `json:"switchingLatency"`
	Seed             uint64        `json:"seed"`
	Freq             uint64        `json:"freq,omitempty"`
	Parallel         bool          `json:"parallel,omitempty"`
	Workers          int           `json:"workers,omitempty"`
	Workload         *WorkloadSpec `json:"workload,omitempty"`
	// CutLevel is the tree depth at which the partition is cut into units
	// (see CutUnits): 0 or 1 cuts at the root's downlinks (the historical
	// behavior), 2 cuts below the aggregation tier, and so on. It is a
	// host-side partitioning knob — it changes which process simulates
	// what, never what is simulated — so it is deliberately not part of
	// TopologyHash.
	CutLevel int `json:"cutLevel,omitempty"`
}

// maxSpecNodes bounds how many topology nodes a decoded spec may carry; a
// malicious or corrupt control frame cannot make a shard allocate an
// unbounded tree.
const maxSpecNodes = 1 << 16

// SpecFromTopology snapshots a topology into its serializable form. Names
// must already be assigned (Deploy and the coordinator both run the
// assignment passes first); an unnamed node is an error, because the two
// sides of the wire could not agree on identity.
func SpecFromTopology(root *SwitchNode, cfg DeployConfig) (ClusterSpec, error) {
	var conv func(t TopoNode) (NodeSpec, error)
	conv = func(t TopoNode) (NodeSpec, error) {
		switch v := t.(type) {
		case *SwitchNode:
			if v.Name == "" {
				return NodeSpec{}, fmt.Errorf("manager: spec: unnamed switch (run the assignment passes first)")
			}
			ns := NodeSpec{Switch: v.Name}
			for _, d := range v.Downlinks {
				c, err := conv(d)
				if err != nil {
					return NodeSpec{}, err
				}
				ns.Downlinks = append(ns.Downlinks, c)
			}
			return ns, nil
		case *ServerNode:
			if v.Name == "" {
				return NodeSpec{}, fmt.Errorf("manager: spec: unnamed server (run the assignment passes first)")
			}
			return NodeSpec{Server: v.Name, Blade: string(v.Type)}, nil
		default:
			return NodeSpec{}, fmt.Errorf("manager: spec: unknown topology node %T", t)
		}
	}
	rs, err := conv(root)
	if err != nil {
		return ClusterSpec{}, err
	}
	return ClusterSpec{
		Root:             rs,
		LinkLatency:      uint64(cfg.LinkLatency),
		SwitchingLatency: uint64(cfg.SwitchingLatency),
		Seed:             cfg.Seed,
		Freq:             uint64(cfg.Freq),
		Parallel:         false,
		Workers:          cfg.Workers,
	}, nil
}

// RackSpec builds the canonical distributed-run topology — nodes
// single-core servers hanging directly off the root switch, so every
// server is its own partition unit — runs the assignment passes, and
// returns the serializable spec. The CLI and examples build their
// distributed clusters through this one helper so coordinator and
// reference runs always agree on identities.
func RackSpec(nodes int, cfg DeployConfig) (ClusterSpec, error) {
	if nodes < 1 {
		return ClusterSpec{}, fmt.Errorf("manager: rack spec: need at least 1 node, got %d", nodes)
	}
	root := NewSwitchNode("")
	for i := 0; i < nodes; i++ {
		root.AddDownlinks(NewServerNode("", SingleCore))
	}
	cfg = normalizeConfig(cfg)
	assignSwitchNames(root)
	assignIdentities(root, cfg)
	return SpecFromTopology(root, cfg)
}

// TreeSpec builds a uniform tree distributed-run topology mirroring
// core.Tree — fanouts[0] switches under the root, and so on, with the last
// fanout counting servers per leaf switch (so []int{4, 8, 32} is the
// paper's 1024-node datacenter) — runs the assignment passes, and returns
// the serializable spec with the given partition cut level. A single
// fanout degenerates to RackSpec's shape.
func TreeSpec(fanouts []int, blade BladeType, cfg DeployConfig, cutLevel int) (ClusterSpec, error) {
	if len(fanouts) == 0 {
		return ClusterSpec{}, fmt.Errorf("manager: tree spec: need at least one fanout")
	}
	for _, f := range fanouts {
		if f < 1 {
			return ClusterSpec{}, fmt.Errorf("manager: tree spec: fanouts must be positive, got %v", fanouts)
		}
	}
	if cutLevel < 0 || cutLevel > len(fanouts) {
		return ClusterSpec{}, fmt.Errorf("manager: tree spec: cut level %d outside tree depth %d", cutLevel, len(fanouts))
	}
	root := NewSwitchNode("")
	var grow func(s *SwitchNode, level int)
	grow = func(s *SwitchNode, level int) {
		if level == len(fanouts)-1 {
			for i := 0; i < fanouts[level]; i++ {
				s.AddDownlinks(NewServerNode("", blade))
			}
			return
		}
		for i := 0; i < fanouts[level]; i++ {
			c := NewSwitchNode("")
			s.AddDownlinks(c)
			grow(c, level+1)
		}
	}
	grow(root, 0)
	cfg = normalizeConfig(cfg)
	assignSwitchNames(root)
	assignIdentities(root, cfg)
	spec, err := SpecFromTopology(root, cfg)
	if err != nil {
		return ClusterSpec{}, err
	}
	spec.CutLevel = cutLevel
	return spec, nil
}

// Topology rebuilds the topology tree and DeployConfig the spec carries.
func (s ClusterSpec) Topology() (*SwitchNode, DeployConfig, error) {
	if s.CutLevel < 0 {
		return nil, DeployConfig{}, fmt.Errorf("manager: spec: negative cut level %d", s.CutLevel)
	}
	nodes := 0
	var conv func(ns NodeSpec) (TopoNode, error)
	conv = func(ns NodeSpec) (TopoNode, error) {
		nodes++
		if nodes > maxSpecNodes {
			return nil, fmt.Errorf("manager: spec: more than %d topology nodes", maxSpecNodes)
		}
		switch {
		case ns.Switch != "" && ns.Server == "":
			sw := NewSwitchNode(ns.Switch)
			for _, d := range ns.Downlinks {
				c, err := conv(d)
				if err != nil {
					return nil, err
				}
				sw.AddDownlinks(c)
			}
			return sw, nil
		case ns.Server != "" && ns.Switch == "":
			if len(ns.Downlinks) != 0 {
				return nil, fmt.Errorf("manager: spec: server %q has downlinks", ns.Server)
			}
			return NewServerNode(ns.Server, BladeType(ns.Blade)), nil
		default:
			return nil, fmt.Errorf("manager: spec: node is neither switch nor server")
		}
	}
	t, err := conv(s.Root)
	if err != nil {
		return nil, DeployConfig{}, err
	}
	root, ok := t.(*SwitchNode)
	if !ok {
		return nil, DeployConfig{}, fmt.Errorf("manager: spec: root is not a switch")
	}
	if err := Validate(root); err != nil {
		return nil, DeployConfig{}, err
	}
	if err := s.Workload.validate(); err != nil {
		return nil, DeployConfig{}, err
	}
	cfg := DeployConfig{
		LinkLatency:      clock.Cycles(s.LinkLatency),
		SwitchingLatency: clock.Cycles(s.SwitchingLatency),
		Seed:             s.Seed,
		Freq:             clock.Hz(s.Freq),
		Workers:          s.Workers,
	}
	return root, cfg, nil
}

// Encode serialises the spec (the payload format of assign frames).
func (s ClusterSpec) Encode() ([]byte, error) { return json.Marshal(s) }

// DecodeSpec parses an encoded spec, enforcing the node bound.
func DecodeSpec(data []byte) (ClusterSpec, error) {
	var s ClusterSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return ClusterSpec{}, fmt.Errorf("manager: spec decode: %w", err)
	}
	// Bounds are enforced during Topology(); run it once here so a bad
	// spec is rejected at decode time, not deep inside a build.
	if _, _, err := s.Topology(); err != nil {
		return ClusterSpec{}, err
	}
	return s, nil
}

// validate rejects a workload Apply could not install: an unknown kind, a
// frame that cannot hold an Ethernet header or exceeds the maximum frame
// length, a rate that is not a positive finite number, or a stream that
// stops before it starts. A spec arrives over the control wire, so this
// must return an error where StartRawStream would panic.
func (w *WorkloadSpec) validate() error {
	switch {
	case w == nil:
		return nil
	case w.Kind != "stream":
		return fmt.Errorf("manager: workload: unknown kind %q", w.Kind)
	case w.FrameBytes <= ethernet.HeaderLen || w.FrameBytes > ethernet.MaxFrameLen:
		return fmt.Errorf("manager: workload: frame of %d bytes outside (%d, %d]", w.FrameBytes, ethernet.HeaderLen, ethernet.MaxFrameLen)
	case !(w.Gbps > 0) || math.IsInf(w.Gbps, 1):
		return fmt.Errorf("manager: workload: rate %v Gbit/s must be positive and finite", w.Gbps)
	case w.StopAt != 0 && w.StopAt <= w.StartAt:
		return fmt.Errorf("manager: workload: stops at cycle %d, not after its start %d", w.StopAt, w.StartAt)
	}
	return nil
}

// Apply installs the spec's workload on the locally instantiated nodes.
// ids must be the cluster-wide assignment-ordered identities — the
// destination ring is computed over the FULL cluster so every process
// agrees on who streams to whom — and only identities with an
// instantiated Node are touched.
func (w *WorkloadSpec) Apply(ids []*NodeIdentity) error {
	if err := w.validate(); err != nil || w == nil {
		return err
	}
	n := len(ids)
	if n == 0 {
		return fmt.Errorf("manager: workload: no servers")
	}
	for _, id := range ids {
		if id.Node == nil {
			continue
		}
		dst := ids[(id.Index+1)%n].MAC
		id.Node.StartRawStream(clock.Cycles(w.StartAt), dst, w.FrameBytes, w.Gbps, clock.Cycles(w.StopAt))
	}
	return nil
}
