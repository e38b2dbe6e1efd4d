// Component state hashing for cross-process bit-identity checks. A
// distributed run cannot compare whole-stream StateHash values against a
// single-process reference — the runner's channel serialization depends
// on how the cluster was cut — so identity is checked per COMPONENT:
// each node and switch digests its full serialized state independently,
// and CombineHashes folds the (name, hash) set into one order-independent
// value. A recovered, resharded run that matches an undisturbed
// single-process run component-for-component is bit-identical where it
// matters: every register, queue, counter and statistic of the simulated
// target.
package manager

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/clock"
	"repro/internal/snapshot"
)

// componentHash serializes one component through the snapshot format and
// digests the bytes. The mini-stream's header pins the FULL tree's
// topology hash and the cycle the state was captured at — so hashes from
// different topologies, or from different points in target time, never
// collide by accident. Step is deliberately zero: the local runner step
// differs between a whole-cluster deployment (gcd of full-latency links)
// and a partition (half-links), and must not leak into component
// identity.
func componentHash(topoHash uint64, cycle clock.Cycles, section string, s snapshot.Snapshotter) (uint64, error) {
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{
		TopologyHash: topoHash,
		Cycle:        uint64(cycle),
		Step:         0,
	})
	if err != nil {
		return 0, err
	}
	w.Section(section)
	if err := s.Save(w); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

// hashComponents digests every component of the given unit tables,
// keyed by section name — the one hash loop behind
// Cluster.ComponentHashes and Partition.UnitHashes.
func hashComponents(topoHash uint64, cycle clock.Cycles, tabs ...*unitTable) (map[string]uint64, error) {
	out := make(map[string]uint64)
	for _, tab := range tabs {
		for _, sec := range tab.sections {
			h, err := componentHash(topoHash, cycle, sec, tab.comps[sec])
			if err != nil {
				return nil, fmt.Errorf("manager: hash %q: %w", sec, err)
			}
			out[sec] = h
		}
	}
	return out, nil
}

// ComponentHashes digests every node and switch of a whole-cluster
// deployment, keyed exactly like Partition.UnitHashes — the reference
// side of the distributed bit-identity check.
func (c *Cluster) ComponentHashes() (map[string]uint64, error) {
	return hashComponents(c.TopoHash, c.Runner.Cycle(), c.comps)
}

// CombineHashes folds a component hash map into a single value,
// independent of which process contributed which component: entries are
// folded in sorted key order.
func CombineHashes(m map[string]uint64) uint64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%016x\n", k, m[k])
	}
	return h.Sum64()
}

// DiffHashes compares a run's component hashes against a reference and
// returns one line per bad component over the sorted union of their keys:
// "missing" (only in want), "extra" (only in got) or "differs". An empty
// result means the two maps are identical.
func DiffHashes(got, want map[string]uint64) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		g, inGot := got[k]
		w, inWant := want[k]
		switch {
		case !inGot:
			out = append(out, fmt.Sprintf("%s: missing (reference %016x)", k, w))
		case !inWant:
			out = append(out, fmt.Sprintf("%s: extra (run %016x)", k, g))
		case g != w:
			out = append(out, fmt.Sprintf("%s: differs (run %016x, reference %016x)", k, g, w))
		}
	}
	return out
}

// ReferenceHashes runs the spec's cluster to the horizon in-process —
// whole tree, no partitioning, no bridges — and returns its component
// hashes: the ground truth a distributed (and possibly recovered and
// resharded) run must match bit-for-bit.
func ReferenceHashes(spec ClusterSpec, horizon uint64) (map[string]uint64, error) {
	root, cfg, err := spec.Topology()
	if err != nil {
		return nil, err
	}
	cluster, err := Deploy(root, cfg)
	if err != nil {
		return nil, err
	}
	if err := spec.Workload.Apply(cluster.ids); err != nil {
		return nil, err
	}
	if spec.Parallel {
		err = cluster.Runner.RunParallel(clock.Cycles(horizon))
	} else {
		err = cluster.Runner.Run(clock.Cycles(horizon))
	}
	if err != nil {
		return nil, err
	}
	return cluster.ComponentHashes()
}

// MergeHashes unions per-process component hash maps, erroring on any
// component reported twice with different values (two processes claiming
// the same component is itself a supervision bug) or twice at all.
func MergeHashes(maps ...map[string]uint64) (map[string]uint64, error) {
	out := make(map[string]uint64)
	for _, m := range maps {
		for k, v := range m {
			if prev, ok := out[k]; ok {
				return nil, fmt.Errorf("manager: component %q reported by two processes (%016x, %016x)", k, prev, v)
			}
			out[k] = v
		}
	}
	return out, nil
}
