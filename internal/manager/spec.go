// ClusterSpec is the wire-serializable description of a deployment: the
// NodeSpec topology plus the deterministic knobs of DeployConfig. The
// coordinator of a multi-process run sends it to every shard process,
// which builds its partition from the spec through the same assignment
// pass Deploy uses, so both sides derive identical names, MACs, IPs and
// seeds.
package manager

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/ethernet"
)

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

// RackSpec builds the canonical distributed-run topology: nodes
// single-core servers hanging directly off the root switch, so every
// server is its own partition unit. It is TreeSpec with one fanout. The
// CLI and examples build their distributed clusters through this one
// helper so coordinator and reference runs always agree on identities.
func RackSpec(nodes int, cfg DeployConfig) (ClusterSpec, error) {
	if nodes < 1 {
		return ClusterSpec{}, fmt.Errorf("manager: rack spec: need at least 1 node, got %d", nodes)
	}
	return TreeSpec([]int{nodes}, SingleCore, cfg, 0)
}

// TreeSpec builds a uniform tree distributed-run topology of Tree's shape
// — fanouts[0] switches under the root, and so on, with the last fanout
// counting servers per leaf switch (so []int{4, 8, 32} is the paper's
// 1024-node datacenter) — and returns the serializable spec with the
// given partition cut level. Switches are named switch0, switch1, ... in
// pre-order and servers server0, server1, ... in depth-first order.
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
	switches, servers := 1, 0
	root := uniform(fanouts, blade, "switch0", func(_ string, _ int, server bool) string {
		if server {
			servers++
			return fmt.Sprintf("server%d", servers-1)
		}
		switches++
		return fmt.Sprintf("switch%d", switches-1)
	})
	cfg = normalizeConfig(cfg)
	return ClusterSpec{
		Root:             root,
		LinkLatency:      uint64(cfg.LinkLatency),
		SwitchingLatency: uint64(cfg.SwitchingLatency),
		Seed:             cfg.Seed,
		Freq:             uint64(cfg.Freq),
		Workers:          cfg.Workers,
		CutLevel:         cutLevel,
	}, nil
}

// Topology validates the spec and returns its topology and the
// DeployConfig it carries.
func (s ClusterSpec) Topology() (NodeSpec, DeployConfig, error) {
	if s.CutLevel < 0 {
		return NodeSpec{}, DeployConfig{}, fmt.Errorf("manager: spec: negative cut level %d", s.CutLevel)
	}
	if err := Validate(s.Root); err != nil {
		return NodeSpec{}, DeployConfig{}, err
	}
	if err := s.Workload.validate(); err != nil {
		return NodeSpec{}, DeployConfig{}, err
	}
	cfg := DeployConfig{
		LinkLatency:      clock.Cycles(s.LinkLatency),
		SwitchingLatency: clock.Cycles(s.SwitchingLatency),
		Seed:             s.Seed,
		Freq:             clock.Hz(s.Freq),
		Workers:          s.Workers,
	}
	return s.Root, cfg, nil
}

// Encode serialises the spec (the payload format of assign frames).
func (s ClusterSpec) Encode() ([]byte, error) { return json.Marshal(s) }

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
