package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// firesim snap — whole-cluster checkpoint/restore.
//
// A checkpoint captures every stateful layer of a deployed simulation
// (token runner, nodes, switches) into one versioned stream. Restoring it
// into a fresh deployment of the same topology replays the exact same
// future, so `snap verify` can prove determinism end to end: run N
// cycles, checkpoint, run M more, then restore and re-run the same M —
// the two final states must hash identically.
func cmdSnap(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snap needs a subcommand: save, restore, inspect or verify")
	}
	switch args[0] {
	case "save":
		return cmdSnapSave(args[1:])
	case "restore":
		return cmdSnapRestore(args[1:])
	case "inspect":
		return cmdSnapInspect(args[1:])
	case "verify":
		return cmdSnapVerify(args[1:])
	default:
		return fmt.Errorf("snap: unknown subcommand %q (want save, restore, inspect or verify)", args[0])
	}
}

// snapFlags are the deployment parameters shared by the snap subcommands
// that build a cluster. Restore must be given the same values that
// produced the checkpoint — the topology hash check refuses anything else.
type snapFlags struct {
	nodes     *int
	latencyUs *float64
	seed      *uint64
}

func addSnapFlags(fs *flag.FlagSet) *snapFlags {
	return &snapFlags{
		nodes:     fs.Int("nodes", 4, "servers on the rack"),
		latencyUs: fs.Float64("latency-us", 2, "link latency in microseconds"),
		seed:      fs.Uint64("seed", 42, "address-assignment seed"),
	}
}

func (f *snapFlags) deploy() (*core.Cluster, error) {
	return core.Deploy(f.topo(), f.config())
}

func (f *snapFlags) topo() *core.Topology {
	return core.Rack("tor0", *f.nodes, core.QuadCore)
}

func (f *snapFlags) config() core.DeployConfig {
	clk := clock.New(clock.DefaultTargetClock)
	return core.DeployConfig{
		LinkLatency: clk.CyclesInMicros(*f.latencyUs),
		Seed:        *f.seed,
	}
}

// startRing drives pure data-plane load (node i streams to node i+1 in a
// ring). Raw streams keep every node quiescent — checkpointable at any
// batch boundary — while still exercising the switch and every link.
func startRing(c *core.Cluster) {
	n := len(c.Servers)
	for i, s := range c.Servers {
		s.StartRawStream(100, c.Servers[(i+1)%n].MAC(), 256, 1.0, 1<<30)
	}
}

func cmdSnapSave(args []string) error {
	fs := flag.NewFlagSet("snap save", flag.ExitOnError)
	sf := addSnapFlags(fs)
	cycles := fs.Int64("cycles", 65536, "target cycles to run before checkpointing")
	out := fs.String("out", "firesim.snap", "checkpoint file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := sf.deploy()
	if err != nil {
		return err
	}
	startRing(c)
	if err := c.RunFor(clock.Cycles(*cycles)); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Checkpoint(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	hash, err := c.StateHash()
	if err != nil {
		return err
	}
	fmt.Printf("checkpointed %d nodes at cycle %d to %s (%d bytes)\n",
		len(c.Servers), c.Runner.Cycle(), *out, info.Size())
	fmt.Printf("topology hash %#x, state hash %#x\n", c.TopoHash, hash)
	return nil
}

func cmdSnapRestore(args []string) error {
	fs := flag.NewFlagSet("snap restore", flag.ExitOnError)
	sf := addSnapFlags(fs)
	in := fs.String("in", "firesim.snap", "checkpoint file to restore")
	extra := fs.Int64("extra", 65536, "target cycles to run after restoring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := manager.RestoreCluster(f, sf.topo(), sf.config())
	if err != nil {
		return err
	}
	fmt.Printf("restored %d nodes at cycle %d from %s\n", len(c.Servers), c.Runner.Cycle(), *in)
	if *extra > 0 {
		if err := c.RunFor(clock.Cycles(*extra)); err != nil {
			return err
		}
	}
	hash, err := c.StateHash()
	if err != nil {
		return err
	}
	fmt.Printf("now at cycle %d, state hash %#x\n", c.Runner.Cycle(), hash)
	return nil
}

func cmdSnapInspect(args []string) error {
	fs := flag.NewFlagSet("snap inspect", flag.ExitOnError)
	in := fs.String("in", "firesim.snap", "checkpoint file to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	h, sections, err := snapshot.Inspect(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: snapshot v%d, topology %#x, cycle %d, step %d, %d sections\n",
		*in, snapshot.Version, h.TopologyHash, h.Cycle, h.Step, len(sections))
	t := stats.NewTable("Section", "Bytes")
	total := 0
	for _, s := range sections {
		t.AddRow(s.Name, s.Bytes)
		total += s.Bytes
	}
	t.AddRow("(total payload)", total)
	fmt.Print(t.String())
	return nil
}

// cmdSnapVerify is the self-contained determinism proof: run N cycles,
// checkpoint, run M more and hash; then restore the checkpoint into a
// fresh deployment, re-run the same M, and require bit-identical state.
func cmdSnapVerify(args []string) error {
	fs := flag.NewFlagSet("snap verify", flag.ExitOnError)
	sf := addSnapFlags(fs)
	cycles := fs.Int64("cycles", 65536, "target cycles before the checkpoint")
	extra := fs.Int64("extra", 65536, "target cycles replayed on both sides of the checkpoint")
	parallel := fs.Bool("parallel", false, "replay with the worker-pool parallel runner")
	if err := fs.Parse(args); err != nil {
		return err
	}

	advance := func(c *core.Cluster, cycles clock.Cycles) error {
		if *parallel {
			return c.Runner.RunParallel(cycles)
		}
		return c.Runner.Run(cycles)
	}

	c1, err := sf.deploy()
	if err != nil {
		return err
	}
	// Round both phases up to whole runner steps (checkpoints exist only
	// at batch boundaries).
	roundUp := func(v int64) clock.Cycles {
		n := clock.Cycles(v)
		step := c1.Runner.Step()
		if rem := n % step; rem != 0 {
			n += step - rem
		}
		return n
	}
	runN, runM := roundUp(*cycles), roundUp(*extra)
	startRing(c1)
	if err := advance(c1, runN); err != nil {
		return err
	}
	var ck bytes.Buffer
	if err := c1.Checkpoint(&ck); err != nil {
		return err
	}
	if err := advance(c1, runM); err != nil {
		return err
	}
	var final1 bytes.Buffer
	if err := c1.Checkpoint(&final1); err != nil {
		return err
	}

	c2, err := manager.RestoreCluster(bytes.NewReader(ck.Bytes()), sf.topo(), sf.config())
	if err != nil {
		return err
	}
	if err := advance(c2, runM); err != nil {
		return err
	}
	var final2 bytes.Buffer
	if err := c2.Checkpoint(&final2); err != nil {
		return err
	}

	mode := "sequential"
	if *parallel {
		mode = "parallel"
	}
	fmt.Printf("checkpoint at cycle %d (%d bytes), replayed %d cycles twice (%s runner)\n",
		runN, ck.Len(), runM, mode)
	if !bytes.Equal(final1.Bytes(), final2.Bytes()) {
		return fmt.Errorf("snap verify: restored replay diverged (%d vs %d final bytes)",
			final1.Len(), final2.Len())
	}
	fmt.Printf("deterministic: original and restored replays reached bit-identical state at cycle %d\n",
		c1.Runner.Cycle())
	return nil
}
