package manager

import (
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// TestAssignToDeadControlConnHeals: a proc whose control connection died
// before the epoch's assign must be named as the epoch's suspect, so that
// recovery kills it and re-packs its units onto the survivor. Blaming
// nobody would re-pack onto the same dead conn and fail every later epoch
// the same way until MaxRecoveries.
func TestAssignToDeadControlConnHeals(t *testing.T) {
	spec := distTestSpec(t, 4, false)
	root, _, err := spec.Topology()
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	c := &coordinator{
		cfg:        CoordinatorConfig{Spec: spec, Procs: 2, SetupTimeout: time.Second},
		spec:       spec,
		procs:      make(map[string]*shardProc),
		pending:    make(map[string]*exec.Cmd),
		weights:    unitWeights(root, spec.CutLevel),
		unitStores: make(map[int]*snapshot.Store),
	}
	for i := range c.weights {
		st, err := snapshot.NewStore(filepath.Join(base, "units", UnitName(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		c.unitStores[i] = st
	}
	if c.rootStore, err = snapshot.NewStore(filepath.Join(base, UnitName(RootUnit)), 0); err != nil {
		t.Fatal(err)
	}
	if c.tokenLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.tokenLn.Close()

	// shard0 is healthy: its assign is read and discarded. shard1's
	// control conn is closed before the assign is written.
	live, liveShard := net.Pipe()
	defer liveShard.Close()
	go io.Copy(io.Discard, liveShard)
	dead, deadShard := net.Pipe()
	deadShard.Close()
	dead.Close()
	c.procs["shard0"] = &shardProc{name: "shard0", conn: live}
	c.procs["shard1"] = &shardProc{name: "shard1", conn: dead}

	_, f := c.runEpoch(c.packOnto(c.fleetNames()))
	if f == nil {
		t.Fatal("epoch with a dead control conn succeeded")
	}
	if _, ok := f.suspects["shard1"]; !ok {
		t.Fatalf("assign to shard1 failed (%s) but suspects are %v; recovery would re-use the dead conn", f.reason, suspectNames(f.suspects))
	}
	if _, ok := f.suspects["shard0"]; ok {
		t.Errorf("healthy shard0 blamed: %v", f.suspects)
	}

	next, err := c.recover(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.procs["shard1"]; ok {
		t.Error("recovery kept shard1 and its dead control conn")
	}
	if got := fmt.Sprint(next); got != fmt.Sprint(map[string][]int{"shard0": {0, 1, 2, 3}}) {
		t.Errorf("next epoch assignments = %s, want every unit on the surviving shard0", got)
	}
}
