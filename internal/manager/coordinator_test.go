package manager

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
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
		pending:    make(map[string]*shardProc),
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

// TestCoordinatorLoop drives the loop's handlers directly, on a fake
// clock, with shard procs that have no process and no connection. Each
// case scripts frames into handle and ticks into check, then reads how
// the epoch failed, if it did. The epoch is 2, waits for a Done at cycle
// 4096 from shard0 and shard1, and has its reply deadline at 5 s; "old"
// is a proc killed in epoch 1.
func TestCoordinatorLoop(t *testing.T) {
	spec := distTestSpec(t, 4, false)
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	type rig struct {
		c           *coordinator
		e           *epochRun
		p0, p1, old *shardProc
	}
	frame := func(r *rig, ms int, p *shardProc, typ byte, msg any) {
		payload, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		r.c.handle(r.e, shardEvent{p: p, typ: typ, payload: payload}, at(ms))
	}
	// heartbeats sends both procs a Progress every 100 ms over [from, to],
	// with cycle(ms) as the carried cycle, ticking check after each.
	heartbeats := func(r *rig, from, to int, cycle func(ms int) uint64) {
		for ms := from; ms <= to; ms += 100 {
			frame(r, ms, r.p0, msgProgress, ProgressMsg{Cycle: cycle(ms)})
			frame(r, ms, r.p1, msgProgress, ProgressMsg{Cycle: cycle(ms)})
			r.c.check(r.e, at(ms))
		}
	}
	frozen := func(int) uint64 { return 4000 }
	cases := []struct {
		name         string
		script       func(r *rig)
		wantReason   string // "" = the epoch must stay healthy
		wantSuspects []string
	}{
		{"lease names a silent proc", func(r *rig) {
			heartbeats(r, 0, 0, frozen)
			for ms := 100; ms <= 1100; ms += 100 {
				frame(r, ms, r.p0, msgProgress, ProgressMsg{Cycle: 4000})
				r.c.check(r.e, at(ms))
			}
		}, "liveness lease expired", []string{"shard1"}},
		{"frozen cycles fail the epoch with no suspect", func(r *rig) {
			r.e.rootRunning = true
			heartbeats(r, 0, 3000, frozen)
		}, "progress watchdog", nil},
		{"advancing shard cycles keep it alive", func(r *rig) {
			r.e.rootRunning = true
			heartbeats(r, 0, 3000, func(ms int) uint64 { return uint64(4000 + ms/500) })
		}, "", nil},
		{"an advancing root keeps it alive", func(r *rig) {
			r.e.rootRunning = true
			for ms := 0; ms <= 3000; ms += 100 {
				r.c.rootCycle.Store(uint64(ms / 10))
				heartbeats(r, ms, ms, frozen)
			}
		}, "", nil},
		{"replies from an older epoch are dropped", func(r *rig) {
			heartbeats(r, 0, 0, frozen)
			frame(r, 100, r.p0, msgDone, DoneMsg{Epoch: 1, Cycle: 2048})
			frame(r, 100, r.p1, msgError, ErrorMsg{Epoch: 1, Msg: "bridge closed"})
			if len(r.e.waiting) != 2 {
				t.Errorf("a stale Done changed the waiting set: %d procs left", len(r.e.waiting))
			}
		}, "", nil},
		{"a Done at the wrong cycle blames its sender", func(r *rig) {
			heartbeats(r, 0, 0, frozen)
			frame(r, 100, r.p1, msgDone, DoneMsg{Epoch: 2, Cycle: 2048})
		}, "done at cycle 2048", []string{"shard1"}},
		{"past the deadline the silent procs are named", func(r *rig) {
			frame(r, 100, r.p0, msgDone, DoneMsg{Epoch: 2, Cycle: 4096})
			heartbeats(r, 4200, 5100, frozen)
		}, "done timeout", []string{"shard1"}},
		{"a loss from a proc killed earlier is ignored", func(r *rig) {
			r.c.handle(r.e, shardEvent{p: r.old, lost: io.EOF}, at(0))
		}, "", nil},
		{"a loss after the proc's Done fails the epoch", func(r *rig) {
			frame(r, 100, r.p0, msgDone, DoneMsg{Epoch: 2, Cycle: 4096})
			r.c.handle(r.e, shardEvent{p: r.p0, lost: io.EOF}, at(200))
		}, "control connection lost", []string{"shard0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			part, err := BuildPartition(spec, nil, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			r := &rig{
				c:   &coordinator{cfg: CoordinatorConfig{Lease: time.Second, StallAfter: 2500 * time.Millisecond}},
				p0:  &shardProc{name: "shard0", epoch: 2, units: []int{0, 1}},
				p1:  &shardProc{name: "shard1", epoch: 2, units: []int{2, 3}},
				old: &shardProc{name: "shard2", epoch: 1},
			}
			r.e = &epochRun{
				epoch: 2, procs: []*shardProc{r.p0, r.p1}, part: part, stop: make(chan struct{}),
				suspects: map[string]string{}, want: msgDone, target: 4096, deadline: at(5000),
				waiting: map[*shardProc]bool{r.p0: true, r.p1: true},
			}
			tc.script(r)
			if !strings.Contains(r.e.reason, tc.wantReason) || (tc.wantReason == "") != (r.e.reason == "") {
				t.Errorf("epoch failure %q, want one containing %q", r.e.reason, tc.wantReason)
			}
			if got, want := suspectNames(r.e.suspects), tc.wantSuspects; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("suspects %v, want %v", got, want)
			}
		})
	}
}
