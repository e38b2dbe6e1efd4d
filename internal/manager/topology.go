// Package manager implements the FireSim simulation manager (Section
// III-B3): users describe a datacenter topology programmatically — which
// switches connect to which servers and switches — and the manager runs
// the server configurations through the (modeled) FPGA build flow, maps
// the simulation onto (modeled) EC2 instances, assigns MAC and IP
// addresses, populates every switch's MAC table, instantiates the
// simulation, and runs workloads on it.
//
// A topology is one NodeSpec tree, the same value a distributed run sends
// to every host. The paper's Figure 4 reads almost line for line:
//
//	root := manager.NodeSpec{Switch: "root"}
//	for i := 0; i < 8; i++ {
//	    tor := manager.NodeSpec{Switch: fmt.Sprintf("tor%d", i)}
//	    for j := 0; j < 8; j++ {
//	        tor.Downlinks = append(tor.Downlinks, manager.NodeSpec{
//	            Server: fmt.Sprintf("tor%d-s%d", i, j), Blade: manager.QuadCore})
//	    }
//	    root.Downlinks = append(root.Downlinks, tor)
//	}
//
// Rack and Tree generate the common uniform shapes.
package manager

import (
	"fmt"
)

// BladeType selects a server blade configuration (Table I allows 1-4
// cores plus optional accelerators).
type BladeType string

// Blade types available to topologies.
const (
	QuadCore   BladeType = "QuadCore"
	DualCore   BladeType = "DualCore"
	SingleCore BladeType = "SingleCore"
)

// Cores reports the core count for the blade type.
func (b BladeType) Cores() (int, error) {
	switch b {
	case QuadCore:
		return 4, nil
	case DualCore:
		return 2, nil
	case SingleCore:
		return 1, nil
	default:
		return 0, fmt.Errorf("manager: unknown blade type %q", b)
	}
}

// NodeSpec is one node of a target topology. Exactly one of Switch and
// Server names it: switches carry downlinks, servers a blade type. Every
// name is required and unique across switches and servers, because
// checkpoint sections and component hashes are keyed by name.
type NodeSpec struct {
	Switch    string     `json:"switch,omitempty"`
	Server    string     `json:"server,omitempty"`
	Blade     BladeType  `json:"blade,omitempty"`
	Downlinks []NodeSpec `json:"downlinks,omitempty"`
}

// maxSpecNodes bounds how many nodes a topology may carry; a malicious
// or corrupt control frame cannot make a shard walk an unbounded tree.
const maxSpecNodes = 1 << 16

// each calls fn on n and every node below it, in pre-order.
func (n *NodeSpec) each(fn func(*NodeSpec)) {
	fn(n)
	for i := range n.Downlinks {
		n.Downlinks[i].each(fn)
	}
}

// Validate checks the structural invariants of a topology: a switch at
// the root, every node exactly a switch or a server, switches with
// downlinks and servers without, known blade types, unique names, at
// least one server and at most maxSpecNodes nodes.
func Validate(root NodeSpec) error {
	names := make(map[string]bool) // one entry per node walked so far
	servers := 0
	var walk func(n *NodeSpec) error
	walk = func(n *NodeSpec) error {
		if len(names) == maxSpecNodes {
			return fmt.Errorf("manager: spec: more than %d topology nodes", maxSpecNodes)
		}
		name := n.Switch
		switch {
		case n.Switch != "" && n.Server == "":
			if len(n.Downlinks) == 0 {
				return fmt.Errorf("manager: switch %q has no downlinks", n.Switch)
			}
		case n.Server != "" && n.Switch == "":
			if len(n.Downlinks) != 0 {
				return fmt.Errorf("manager: spec: server %q has downlinks", n.Server)
			}
			if _, err := n.Blade.Cores(); err != nil {
				return err
			}
			name = n.Server
			servers++
		default:
			return fmt.Errorf("manager: spec: node is neither switch nor server")
		}
		if names[name] {
			return fmt.Errorf("manager: two components named %q", name)
		}
		names[name] = true
		for i := range n.Downlinks {
			if err := walk(&n.Downlinks[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(&root); err != nil {
		return err
	}
	if root.Switch == "" {
		return fmt.Errorf("manager: spec: root is not a switch")
	}
	if servers == 0 {
		return fmt.Errorf("manager: topology contains no servers")
	}
	return nil
}

// CountServers returns the number of server blades in the topology.
func CountServers(root NodeSpec) int {
	n := 0
	root.each(func(v *NodeSpec) {
		if v.Server != "" {
			n++
		}
	})
	return n
}

// CountSwitches returns the number of switches in the topology.
func CountSwitches(root NodeSpec) int {
	n := 0
	root.each(func(v *NodeSpec) {
		if v.Switch != "" {
			n++
		}
	})
	return n
}

// Rack builds the most common building block: one ToR switch named name
// with n identical servers named name-s0, name-s1, ...
func Rack(name string, n int, blade BladeType) NodeSpec {
	return uniform([]int{n}, blade, name, func(parent string, i int, _ bool) string {
		return fmt.Sprintf("%s-s%d", parent, i)
	})
}

// Tree builds a uniform tree topology: fanouts lists the downlink count
// at each switch level from the root down, and the final level's
// downlinks are servers. Names are paths: the root is "root" and
// downlink i of node x is "x.i". Tree([]int{4, 8, 32}, QuadCore) is the
// paper's 1024-node datacenter: a root over 4 aggregation switches, 8
// ToRs each, 32 servers per ToR.
func Tree(fanouts []int, blade BladeType) (NodeSpec, error) {
	if len(fanouts) == 0 {
		return NodeSpec{}, fmt.Errorf("manager: Tree needs at least one level")
	}
	return uniform(fanouts, blade, "root", func(parent string, i int, _ bool) string {
		return fmt.Sprintf("%s.%d", parent, i)
	}), nil
}

// uniform is the one generator behind Rack, Tree and TreeSpec. It grows
// the tree in pre-order and names each downlink as it is created: name
// gets the parent's name, the downlink's port and whether it is a server.
func uniform(fanouts []int, blade BladeType, root string, name func(parent string, i int, server bool) string) NodeSpec {
	var grow func(level int, sw string) NodeSpec
	grow = func(level int, sw string) NodeSpec {
		n := NodeSpec{Switch: sw, Downlinks: make([]NodeSpec, 0, max(fanouts[level], 0))}
		last := level == len(fanouts)-1
		for i := 0; i < fanouts[level]; i++ {
			child := name(sw, i, last)
			if last {
				n.Downlinks = append(n.Downlinks, NodeSpec{Server: child, Blade: blade})
			} else {
				n.Downlinks = append(n.Downlinks, grow(level+1, child))
			}
		}
		return n
	}
	return grow(0, root)
}
