// Whole-cluster checkpoint/restore. A checkpoint is a snapshot stream
// whose header carries the deployment's topology hash and the runner's
// cycle/step, followed by one section per stateful component: the token
// runner ("runner"), every server node ("node/<name>") and every switch
// ("switch/<name>"). Restoring requires a cluster deployed from the same
// topology and config — the hash check refuses anything else — and
// replaces simulation state wholesale, so a restored cluster re-runs
// bit-identically to the original.
package manager

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/clock"
	"repro/internal/snapshot"
)

// Checkpoint writes the cluster's complete simulation state to w. All
// nodes must be quiescent (no in-flight kernel events); if one is not,
// the error says which. Checkpoints are only defined at batch boundaries,
// which every Run/RunFor call leaves the cluster at.
func (c *Cluster) Checkpoint(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, snapshot.Header{
		TopologyHash: c.TopoHash,
		Cycle:        uint64(c.Runner.Cycle()),
		Step:         uint64(c.Runner.Step()),
	})
	if err != nil {
		return err
	}
	sw.Section("runner")
	if err := c.Runner.Save(sw); err != nil {
		return err
	}
	for _, n := range c.Servers {
		sw.Section("node/" + n.Name())
		if err := n.Save(sw); err != nil {
			return err
		}
	}
	for _, s := range c.Switches {
		sw.Section("switch/" + s.Name())
		if err := s.Save(sw); err != nil {
			return err
		}
	}
	return sw.Close()
}

// RestoreState overwrites this cluster's simulation state from a
// checkpoint stream. The cluster must already be deployed from the same
// topology and config; the topology hash in the header is checked before
// anything is touched. Every component present in the cluster must have a
// section in the stream and vice versa.
func (c *Cluster) RestoreState(src io.Reader) error {
	_, err := restoreSections(src, c.TopoHash, c.Runner.Step(), c.comps, "runner", c.Runner.Restore)
	return err
}

// restoreSections loads a checkpoint stream into the components of one
// unit table and returns the cycle the stream was taken at — the one
// restore loop behind Cluster.RestoreState and Partition.RestoreUnit.
// The header must carry this deployment's topology hash and runner step.
// extra names the one section that is not a component (the cluster's
// "runner", a unit's "links"), which loadExtra restores. Every other
// section must name a component of the table, no section may repeat, and
// every component must have one.
func restoreSections(src io.Reader, topoHash uint64, step clock.Cycles, tab *unitTable, extra string, loadExtra func(*snapshot.Reader) error) (uint64, error) {
	r, h, err := snapshot.NewReader(src)
	if err != nil {
		return 0, err
	}
	if h.TopologyHash != topoHash {
		return 0, fmt.Errorf("manager: checkpoint topology hash %#x does not match deployed %#x", h.TopologyHash, topoHash)
	}
	if h.Step != uint64(step) {
		return 0, fmt.Errorf("manager: checkpoint step %d does not match runner step %d", h.Step, step)
	}
	restored := make(map[string]bool)
	for {
		name, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if restored[name] {
			return 0, fmt.Errorf("manager: checkpoint has duplicate section %q", name)
		}
		restored[name] = true
		if name == extra {
			err = loadExtra(r)
		} else if s, ok := tab.comps[name]; ok {
			err = s.Restore(r)
		} else {
			err = fmt.Errorf("manager: checkpoint section %q names no component here", name)
		}
		if err != nil {
			return 0, err
		}
	}
	if !restored[extra] {
		return 0, fmt.Errorf("manager: checkpoint missing %s section", extra)
	}
	for _, sec := range tab.sections {
		if !restored[sec] {
			return 0, fmt.Errorf("manager: checkpoint missing section %q", sec)
		}
	}
	return h.Cycle, nil
}

// RestoreCluster deploys the topology and then loads the checkpoint into
// it: the one-call path from a saved stream back to a runnable cluster.
// root and cfg must describe the same deployment that produced the
// checkpoint (applications re-register their handlers on the fresh nodes
// before resuming, exactly as on a cold start).
func RestoreCluster(src io.Reader, root NodeSpec, cfg DeployConfig) (*Cluster, error) {
	c, err := Deploy(root, cfg)
	if err != nil {
		return nil, err
	}
	if err := c.RestoreState(src); err != nil {
		return nil, err
	}
	return c, nil
}

// StateHash digests the full checkpoint stream into 64 bits — a cheap
// whole-simulation fingerprint for determinism checks.
func (c *Cluster) StateHash() (uint64, error) {
	h := fnv.New64a()
	if err := c.Checkpoint(h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
