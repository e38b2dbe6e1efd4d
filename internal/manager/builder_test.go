package manager

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// startRing drives pure data-plane load on a deployed cluster: node i
// streams raw frames to node i+1. Raw streams keep every node quiescent,
// so the cluster can be checkpointed at any batch boundary.
func startRing(c *Cluster) {
	n := len(c.Servers)
	for i, s := range c.Servers {
		s.StartRawStream(100, c.Servers[(i+1)%n].MAC(), 256, 10, 1<<20)
	}
}

// goldenTree builds an unnamed uniform tree from the public topology API,
// so every switch and server name is assigned by the builder.
func goldenTree(fanouts []int) *SwitchNode {
	root := NewSwitchNode("")
	var grow func(s *SwitchNode, level int)
	grow = func(s *SwitchNode, level int) {
		for i := 0; i < fanouts[level]; i++ {
			if level == len(fanouts)-1 {
				s.AddDownlinks(NewServerNode("", SingleCore))
				continue
			}
			c := NewSwitchNode("")
			s.AddDownlinks(c)
			grow(c, level+1)
		}
	}
	grow(root, 0)
	return root
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCheckpointBytesGolden pins the exact checkpoint bytes of the
// whole-cluster and partition paths. Runner.Save writes endpoint indices
// and SaveUnit writes channel order, so these values move whenever the
// builder changes its Add/Connect order, its naming or its MAC tables —
// which a topology refactor must never do.
func TestCheckpointBytesGolden(t *testing.T) {
	supernode := snapCfg()
	supernode.Supernode = true
	clusters := []struct {
		name string
		root *SwitchNode
		cfg  DeployConfig
		want string
		// hashes is the topology hash, the component count and the
		// combined component hashes.
		hashes string
	}{
		{"rack4", goldenTree([]int{4}), DeployConfig{LinkLatency: 64, Seed: 42}, "276763399f6c079c9befcd3f5e6383cceef67b6e25e310ad9509f42cfc2ab85e", "3a96e143e43cc9fe 5 b19becba579b61bd"},
		{"tree222", goldenTree([]int{2, 2, 2}), DeployConfig{LinkLatency: 64, Seed: 42}, "fea051f8aa8e68d32993bcd815ac1df90b32d58e6e8138338cc63053ffca572d", "334967c769797fa9 15 cfdbf9fee6dded4b"},
		{"supernode-faults", snapTopo(), supernode, "d30bd59232fde651a6df27a4e239bd7c97da52181ee59b810db80b863f2651e3", "5ebde3fd59ad5582 7 336c91121b027877"},
	}
	for _, tc := range clusters {
		c, err := Deploy(tc.root, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		startRing(c)
		if err := c.RunFor(4096); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Servers[0].Stats().FramesSent == 0 {
			t.Fatalf("%s: ring sent no frames", tc.name)
		}
		var ck bytes.Buffer
		if err := c.Checkpoint(&ck); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sha(ck.Bytes()); got != tc.want {
			t.Errorf("%s: checkpoint sha256 %s, want %s", tc.name, got, tc.want)
		}
		comps, err := c.ComponentHashes()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x %d %016x", c.TopoHash, len(comps), CombineHashes(comps)); got != tc.hashes {
			t.Errorf("%s: topology hash, components, component hashes = %s, want %s", tc.name, got, tc.hashes)
		}
	}

	spec, err := TreeSpec([]int{2, 2, 2}, SingleCore, DeployConfig{LinkLatency: 512, Seed: 42}, 2)
	if err != nil {
		t.Fatal(err)
	}
	units := map[int]string{
		RootUnit: "c3248e424c68c621a2f634383a2b9b58c4d8e47deeff22e371fa1eb9a8063486",
		0:        "b8e1b93c10b7daca6cee0a80ac5484b031240723f32862e67cef51601b79ad67",
		1:        "9dfe2623adb3b1692bce5cb1df77244d21ae3860bb876310da1fb3a8cff60a75",
		2:        "98a809df14eebb2f0c7069e97edbd682d509c0f0262e32efb74c78f32f39d26d",
		3:        "dec6624aeacbf1e2359785f1c4f523f140df96eb959e885ab35b7d2176335e7a",
	}
	rootPart, err := BuildPartition(spec, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := BuildPartition(spec, []int{0, 1, 2, 3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for unit, want := range units {
		p := shard
		if unit == RootUnit {
			p = rootPart
		}
		var buf bytes.Buffer
		if err := p.SaveUnit(&buf, unit); err != nil {
			t.Fatalf("unit %d: %v", unit, err)
		}
		if got := sha(buf.Bytes()); got != want {
			t.Errorf("unit %d: SaveUnit sha256 %s, want %s", unit, got, want)
		}
		if unit == RootUnit {
			continue
		}
		// A unit's stream does not depend on which units share its shard.
		alone, err := BuildPartition(spec, []int{unit}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var solo bytes.Buffer
		if err := alone.SaveUnit(&solo, unit); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(solo.Bytes(), buf.Bytes()) {
			t.Errorf("unit %d: SaveUnit bytes depend on the shard's other units", unit)
		}
	}
}

// TestDuplicateComponentNamesRejected: checkpoint sections and component
// hashes are keyed by name, so two components with one name — two
// servers, a server and a switch, or an auto-assigned name colliding with
// a user's — must be refused by every builder instead of silently
// dropping one of them from checkpoints and hash checks.
func TestDuplicateComponentNamesRejected(t *testing.T) {
	trees := map[string]func() *SwitchNode{
		"two servers": func() *SwitchNode {
			root := NewSwitchNode("root")
			root.AddDownlinks(NewServerNode("a", SingleCore), NewServerNode("a", SingleCore))
			return root
		},
		"server and switch": func() *SwitchNode {
			root := NewSwitchNode("root")
			tor := NewSwitchNode("a")
			tor.AddDownlinks(NewServerNode("b", SingleCore))
			root.AddDownlinks(tor, NewServerNode("a", SingleCore))
			return root
		},
		"auto name after user name": func() *SwitchNode {
			root := NewSwitchNode("root")
			root.AddDownlinks(NewServerNode("server1", SingleCore), NewServerNode("", SingleCore))
			return root
		},
		"user name after auto name": func() *SwitchNode {
			root := NewSwitchNode("")
			root.AddDownlinks(NewServerNode("", SingleCore), NewServerNode("switch0", SingleCore))
			return root
		},
	}
	for name, tree := range trees {
		if _, err := Deploy(tree(), DeployConfig{LinkLatency: 64}); err == nil || !strings.Contains(err.Error(), "two components named") {
			t.Errorf("%s: Deploy err = %v, want a duplicate-name error", name, err)
		}
	}

	spec := ClusterSpec{
		Root: NodeSpec{Switch: "root", Downlinks: []NodeSpec{
			{Server: "a", Blade: "SingleCore"},
			{Server: "a", Blade: "SingleCore"},
		}},
		LinkLatency: 512,
	}
	for _, units := range [][]int{nil, {0, 1}} {
		if _, err := BuildPartition(spec, units, time.Second); err == nil || !strings.Contains(err.Error(), `two components named "a"`) {
			t.Errorf("BuildPartition(units %v) err = %v, want a duplicate-name error", units, err)
		}
	}
	if _, err := ReferenceHashes(spec, 512); err == nil {
		t.Error("ReferenceHashes accepted a spec with a duplicate name")
	}
}

// section is one named section of a hand-built checkpoint stream.
type section struct {
	name string
	save func(w *snapshot.Writer) error
}

func writeStream(t *testing.T, h snapshot.Header, secs []section) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		w.Section(s.name)
		if err := s.save(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreTarget is a freshly built deployment plus everything needed to
// hand-build checkpoint streams for it.
type restoreTarget struct {
	header  snapshot.Header
	comps   []section // every component section, in save order
	extra   section   // the non-component section ("runner" or "links")
	foreign section   // a well-formed section that belongs elsewhere
	restore func(data []byte) error
}

// clusterTarget is a whole-cluster deployment restored by RestoreState.
// A "links" section belongs to a partition unit, never to a cluster.
func clusterTarget(t *testing.T) restoreTarget {
	c, err := Deploy(snapTopo(), DeployConfig{LinkLatency: 64})
	if err != nil {
		t.Fatal(err)
	}
	rt := restoreTarget{
		header:  snapshot.Header{TopologyHash: c.TopoHash, Step: uint64(c.Runner.Step())},
		extra:   section{"runner", c.Runner.Save},
		foreign: section{"links", func(w *snapshot.Writer) error { return c.Runner.SaveChannels(w, func(string) bool { return true }) }},
		restore: func(data []byte) error { return c.RestoreState(bytes.NewReader(data)) },
	}
	for _, n := range c.Servers {
		rt.comps = append(rt.comps, section{"node/" + n.Name(), n.Save})
	}
	for _, sw := range c.Switches {
		rt.comps = append(rt.comps, section{"switch/" + sw.Name(), sw.Save})
	}
	return rt
}

// unitTarget is unit 0 of a shard hosting units {0, 1} of a two-server
// rack, restored by RestoreUnit. Unit 1's server is hosted by the same
// process but is not part of unit 0.
func unitTarget(t *testing.T) restoreTarget {
	spec, err := RackSpec(2, DeployConfig{LinkLatency: 512, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPartition(spec, []int{0, 1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server0, server1 := p.Servers[0], p.Servers[1]
	members := map[string]bool{server0.Name(): true, "up/" + UnitName(0): true}
	return restoreTarget{
		header: snapshot.Header{TopologyHash: p.TopoHash, Step: uint64(p.Step)},
		comps:  []section{{"node/" + server0.Name(), server0.Save}},
		extra: section{"links", func(w *snapshot.Writer) error {
			return p.Runner.SaveChannels(w, func(n string) bool { return members[n] })
		}},
		foreign: section{"node/" + server1.Name(), server1.Save},
		restore: func(data []byte) error {
			_, err := p.RestoreUnit(data, 0)
			return err
		},
	}
}

// TestRestoreRejects runs every malformed checkpoint through both
// restore paths: each must fail with an error, never panic, while the
// well-formed stream built the same way restores cleanly. The
// "section from another unit" row pins that a unit looks sections up in
// its own components only, not in every unit its shard hosts.
func TestRestoreRejects(t *testing.T) {
	targets := map[string]func(*testing.T) restoreTarget{
		"RestoreState": clusterTarget,
		"RestoreUnit":  unitTarget,
	}
	cases := []struct {
		name   string
		stream func(rt restoreTarget) (snapshot.Header, []section)
		ok     bool
	}{
		{"valid", func(rt restoreTarget) (snapshot.Header, []section) {
			return rt.header, append(rt.comps, rt.extra)
		}, true},
		{"duplicate section", func(rt restoreTarget) (snapshot.Header, []section) {
			return rt.header, append(append(rt.comps, rt.extra), rt.comps[0])
		}, false},
		{"unknown section", func(rt restoreTarget) (snapshot.Header, []section) {
			return rt.header, append(append(rt.comps, rt.extra), section{"node/ghost", rt.comps[0].save})
		}, false},
		{"missing component", func(rt restoreTarget) (snapshot.Header, []section) {
			return rt.header, append(rt.comps[1:], rt.extra)
		}, false},
		{"missing runner or links", func(rt restoreTarget) (snapshot.Header, []section) {
			return rt.header, rt.comps
		}, false},
		{"section from another unit", func(rt restoreTarget) (snapshot.Header, []section) {
			return rt.header, append(append(rt.comps, rt.extra), rt.foreign)
		}, false},
		{"wrong topology hash", func(rt restoreTarget) (snapshot.Header, []section) {
			h := rt.header
			h.TopologyHash ^= 1
			return h, append(rt.comps, rt.extra)
		}, false},
		{"wrong step", func(rt restoreTarget) (snapshot.Header, []section) {
			h := rt.header
			h.Step++
			return h, append(rt.comps, rt.extra)
		}, false},
	}
	for path, target := range targets {
		for _, tc := range cases {
			t.Run(path+"/"+tc.name, func(t *testing.T) {
				rt := target(t)
				h, secs := tc.stream(rt)
				data := writeStream(t, h, append([]section(nil), secs...))
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("restore panicked: %v", r)
					}
				}()
				err := rt.restore(data)
				if tc.ok && err != nil {
					t.Fatalf("well-formed stream refused: %v", err)
				}
				if !tc.ok && err == nil {
					t.Fatal("malformed stream restored without error")
				}
			})
		}
	}
}
