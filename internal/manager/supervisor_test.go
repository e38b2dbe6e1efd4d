package manager

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/snapshot"
	"repro/internal/softstack"
	"repro/internal/transport"
)

// These tests pin the pieces the run-dist coordinator supervises a run
// with: sliced runner advances, a bridge that latches a dead peer instead
// of hanging, and the checkpoint -> respawn -> Bridge.Reset rewind that
// heals a lost partition bit-identically.

// runSliced advances r to horizon in the given number of slices, each
// ending on a step boundary, the way firesim top drives its heartbeat.
func runSliced(r *fame.Runner, horizon clock.Cycles, slices int, parallel bool) error {
	step := r.Step()
	for s := 1; s <= slices; s++ {
		target := horizon * clock.Cycles(s) / clock.Cycles(slices)
		target -= target % step
		n := target - r.Cycle()
		if n <= 0 {
			continue
		}
		var err error
		if parallel {
			err = r.RunParallel(n)
		} else {
			err = r.Run(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestSupervisorDeadPeer: a two-runner simulation where the peer host dies
// mid-run. The bridge must detect the dead peer (closed connection or
// read deadline) and latch the failure, the surviving partition must keep
// simulating to the horizon, and the bridge must vouch for exactly the
// windows the peer completed.
func TestSupervisorDeadPeer(t *testing.T) {
	const linkLat = 3200
	const horizon = 200 * linkLat
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}
	c1, c2 := net.Pipe()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Host 2 simulates node b for three steps, then the host dies.
		b := softstack.NewNode(softstack.Config{Name: "b", MAC: 0x2, IP: 0x0a000002, StaticARP: arp})
		br := transport.NewBridgeConfig("bridge2", c2, transport.BridgeConfig{})
		r := fame.NewRunner()
		r.Add(b)
		r.Add(br)
		if err := r.Connect(b, 0, br, 0, linkLat); err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ {
			if err := r.Run(linkLat); err != nil {
				panic(err)
			}
		}
		c2.Close()
	}()

	// Host 1: node a behind a bridge with a read deadline, so a peer that
	// dies silently still surfaces as an error in bounded time.
	a := softstack.NewNode(softstack.Config{Name: "a", MAC: 0x1, IP: 0x0a000001, StaticARP: arp})
	br := transport.NewBridgeConfig("to-host2", c1, transport.BridgeConfig{
		ReadTimeout: 100 * time.Millisecond,
	})
	r := fame.NewRunner()
	r.Add(a)
	r.Add(br)
	if err := r.Connect(a, 0, br, 0, linkLat); err != nil {
		t.Fatal(err)
	}
	// Traffic toward the doomed peer, so the failure happens mid-workload.
	a.Ping(0, 0x0a000002, 50, 10*linkLat, func([]softstack.PingResult) {})

	start := time.Now()
	err := runSliced(r, horizon, 10, false)
	elapsed := time.Since(start)
	wg.Wait()
	if err != nil {
		t.Fatalf("run with a dead peer failed: %v", err)
	}
	if got := r.Cycle(); got != horizon {
		t.Errorf("surviving partition stopped at cycle %d, want %d", got, horizon)
	}
	berr := br.Err()
	if berr == nil {
		t.Fatal("peer death not detected")
	}
	if !strings.Contains(berr.Error(), "to-host2") {
		t.Errorf("bridge error %q does not name the bridge", berr)
	}
	if elapsed > 5*time.Second {
		t.Errorf("surviving partition took %v to reach the horizon; detection should be bounded by the read deadline", elapsed)
	}
	// Host 2 completed exactly 3 token exchanges before dying, so that is
	// the last window the bridge can vouch for.
	if got := clock.Cycles(br.Received()) * linkLat; got != 3*linkLat {
		t.Errorf("last confirmed remote cycle = %d, want %d", got, 3*linkLat)
	}
}

// TestSupervisorAllHealthy: with no peers, a sliced run is just a Run — it
// reaches the horizon and lands on the same state as one unsliced run.
func TestSupervisorAllHealthy(t *testing.T) {
	const horizon = clock.Cycles(20 * 3200)
	deploy := func() *Cluster {
		topo := rackOf(2)
		c, err := Deploy(topo, DeployConfig{Seed: 3, LinkLatency: 3200})
		if err != nil {
			t.Fatal(err)
		}
		c.Servers[0].StartRawStream(0, c.Servers[1].MAC(), 1500, 10.0, horizon)
		return c
	}

	ref := deploy()
	if err := ref.RunFor(horizon); err != nil {
		t.Fatal(err)
	}
	want, err := ref.StateHash()
	if err != nil {
		t.Fatal(err)
	}

	c := deploy()
	if err := runSliced(c.Runner, horizon, 7, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Runner.Cycle(); got != horizon {
		t.Errorf("sliced run stopped at cycle %d, want %d", got, horizon)
	}
	got, err := c.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sliced state %#x diverged from unsliced %#x", got, want)
	}
}

// TestSupervisorParallel runs the slice loop through the worker-pool
// scheduler and checks it lands on the same state as the sequential slice
// loop: every slice rebuilds the ring pairs and drains them back, so the
// slice boundaries must be invisible.
func TestSupervisorParallel(t *testing.T) {
	const horizon = clock.Cycles(40 * 3200)

	ref := workersRack(t, 0)
	if err := runSliced(ref.Runner, horizon, 10, false); err != nil {
		t.Fatal(err)
	}
	want, err := ref.StateHash()
	if err != nil {
		t.Fatal(err)
	}

	c := workersRack(t, 2)
	if err := runSliced(c.Runner, horizon, 10, true); err != nil {
		t.Fatal(err)
	}
	if got := c.Runner.Cycle(); got != horizon {
		t.Errorf("parallel sliced run stopped at %d, want %d", got, horizon)
	}
	got, err := c.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("parallel sliced state %#x diverged from sequential %#x", got, want)
	}
}

// savePartition and restorePartition checkpoint one half of a two-host
// distributed run: the partition's runner (in-flight token batches) plus
// its single node. This is the shape Cluster.Checkpoint has for a full
// deployment, reduced to what a hand-built partition needs.
func savePartition(r *fame.Runner, n *softstack.Node) func(io.Writer) error {
	return func(dst io.Writer) error {
		w, err := snapshot.NewWriter(dst, snapshot.Header{
			Cycle: uint64(r.Cycle()),
			Step:  uint64(r.Step()),
		})
		if err != nil {
			return err
		}
		w.Section("runner")
		if err := r.Save(w); err != nil {
			return err
		}
		w.Section("node/" + n.Name())
		if err := n.Save(w); err != nil {
			return err
		}
		return w.Close()
	}
}

func restorePartition(r *fame.Runner, n *softstack.Node) func(io.Reader) error {
	return func(src io.Reader) error {
		rd, _, err := snapshot.NewReader(src)
		if err != nil {
			return err
		}
		for {
			name, err := rd.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			switch name {
			case "runner":
				err = r.Restore(rd)
			case "node/" + n.Name():
				err = n.Restore(rd)
			default:
				err = fmt.Errorf("unexpected section %q", name)
			}
			if err != nil {
				return err
			}
		}
	}
}

// peerHost stands in for the remote machine: it retains its own partition
// checkpoints at the same cadence as the local side, so a respawn at
// cycle C can actually be honoured.
type peerHost struct {
	mu    sync.Mutex
	ckpts map[clock.Cycles][]byte
}

func (h *peerHost) put(cycle clock.Cycles, data []byte) {
	h.mu.Lock()
	h.ckpts[cycle] = data
	h.mu.Unlock()
}

func (h *peerHost) get(cycle clock.Cycles) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ckpts[cycle]
}

// run simulates node b from resumeCycle to horizon, checkpointing every
// `every` cycles. dieAfter >= 0 kills the host (closes the connection)
// after that many steps; -1 runs to completion. A non-nil resume stream
// restores the partition and rewinds the bridge sequence to match — the
// respawned-peer half of the recovery contract.
func (h *peerHost) run(wg *sync.WaitGroup, conn io.ReadWriter,
	linkLat, every, horizon clock.Cycles, resume []byte, resumeCycle clock.Cycles, dieAfter int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := softstack.NewNode(softstack.Config{Name: "b", MAC: 0x2, IP: 0x0a000002})
		br := transport.NewBridgeConfig("bridge-b", conn, transport.BridgeConfig{})
		r := fame.NewRunner()
		r.Add(b)
		r.Add(br)
		if err := r.Connect(b, 0, br, 0, linkLat); err != nil {
			panic(err)
		}
		if resume != nil {
			if err := restorePartition(r, b)(bytes.NewReader(resume)); err != nil {
				panic(fmt.Sprintf("peer restore at cycle %d: %v", resumeCycle, err))
			}
			br.Reset(conn, uint64(resumeCycle/linkLat))
		} else {
			b.StartRawStream(0, 0x1, 256, 1.0, 1<<20)
		}
		save := func() {
			var buf bytes.Buffer
			if err := savePartition(r, b)(&buf); err != nil {
				panic(fmt.Sprintf("peer checkpoint at cycle %d: %v", r.Cycle(), err))
			}
			h.put(r.Cycle(), buf.Bytes())
		}
		save()
		steps := 0
		for r.Cycle() < horizon {
			if dieAfter >= 0 && steps >= dieAfter {
				if c, ok := conn.(io.Closer); ok {
					c.Close()
				}
				return
			}
			if err := r.Run(linkLat); err != nil {
				return
			}
			steps++
			if r.Cycle()%every == 0 {
				save()
			}
		}
	}()
}

// recoveryOutcome is what one end-to-end scenario run produces: the
// surviving bridge, node a's final statistics, the local partition's
// final checkpoint bytes and the cycles the peer was respawned at.
type recoveryOutcome struct {
	cycle   clock.Cycles
	br      *transport.Bridge
	stats   softstack.Stats
	final   []byte
	respawn []clock.Cycles
}

// runRecoveryScenario drives a two-partition simulation (node a local,
// node b behind a bridge on a goroutine "host") to the horizon. When die
// is true the peer host is killed after 6 steps and the local side must
// heal it: rewind to the newest checkpoint the peer provably completed,
// respawn the peer from its own checkpoint at that cycle, and reset the
// bridge sequence. Otherwise it is the undisturbed control run the
// recovered one is compared against.
func runRecoveryScenario(t *testing.T, die bool) recoveryOutcome {
	const linkLat = clock.Cycles(3200)
	const every = 4 * linkLat
	const horizon = 16 * linkLat

	host := &peerHost{ckpts: make(map[clock.Cycles][]byte)}
	var wg sync.WaitGroup
	c1, c2 := net.Pipe()
	dieAfter := -1
	if die {
		dieAfter = 6
	}
	host.run(&wg, c2, linkLat, every, horizon, nil, 0, dieAfter)

	a := softstack.NewNode(softstack.Config{Name: "a", MAC: 0x1, IP: 0x0a000001})
	a.StartRawStream(0, 0x2, 256, 1.0, 1<<20)
	br := transport.NewBridgeConfig("to-host-b", c1, transport.BridgeConfig{
		ReadTimeout: 100 * time.Millisecond,
	})
	r := fame.NewRunner()
	r.Add(a)
	r.Add(br)
	if err := r.Connect(a, 0, br, 0, linkLat); err != nil {
		t.Fatal(err)
	}

	type checkpoint struct {
		cycle clock.Cycles
		data  []byte
	}
	var ckpts []checkpoint
	save := func() {
		var buf bytes.Buffer
		if err := savePartition(r, a)(&buf); err != nil {
			t.Fatalf("local checkpoint at cycle %d: %v", r.Cycle(), err)
		}
		ckpts = append(ckpts, checkpoint{r.Cycle(), buf.Bytes()})
	}
	save()
	var respawns []clock.Cycles
	for r.Cycle() < horizon {
		if err := r.Run(linkLat); err != nil {
			t.Fatal(err)
		}
		if br.Err() == nil {
			if r.Cycle()%every == 0 {
				save()
			}
			continue
		}
		if len(respawns) > 0 {
			t.Fatalf("second peer failure at cycle %d: %v", r.Cycle(), br.Err())
		}
		// The peer completed (at least) the window before the last batch
		// it sent us; rewind to a checkpoint it can provably match.
		var peerComplete clock.Cycles
		if n := br.Received(); n > 0 {
			peerComplete = clock.Cycles(n-1) * linkLat
		}
		i := len(ckpts) - 1
		for i > 0 && ckpts[i].cycle > peerComplete {
			i--
		}
		ck := ckpts[i]
		data := host.get(ck.cycle)
		if data == nil {
			t.Fatalf("peer host has no checkpoint at cycle %d", ck.cycle)
		}
		d1, d2 := net.Pipe()
		host.run(&wg, d2, linkLat, every, horizon, data, ck.cycle, -1)
		if err := restorePartition(r, a)(bytes.NewReader(ck.data)); err != nil {
			t.Fatalf("local restore at cycle %d: %v", ck.cycle, err)
		}
		br.Reset(d1, uint64(ck.cycle/linkLat))
		// Checkpoints after the rewind point belong to the abandoned timeline.
		ckpts = ckpts[:i+1]
		respawns = append(respawns, ck.cycle)
	}
	wg.Wait()
	var final bytes.Buffer
	if err := savePartition(r, a)(&final); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	return recoveryOutcome{cycle: r.Cycle(), br: br, stats: a.Stats(), final: final.Bytes(), respawn: respawns}
}

// TestSupervisorRecoversDeadPeer is the recovery acceptance test: the peer
// host dies mid-run, and instead of running on without it the local side
// rewinds to its last checkpoint, respawns the peer from the peer's own
// checkpoint at that cycle, resets the bridge sequence, and completes the
// run. The recovered run's final local state must be bit-identical to an
// undisturbed run.
func TestSupervisorRecoversDeadPeer(t *testing.T) {
	const linkLat = clock.Cycles(3200)
	const horizon = 16 * linkLat

	control := runRecoveryScenario(t, false)
	if len(control.respawn) != 0 {
		t.Fatalf("control run respawned peers: %v", control.respawn)
	}

	got := runRecoveryScenario(t, true)
	if got.cycle != horizon {
		t.Errorf("recovered run stopped at cycle %d, want %d", got.cycle, horizon)
	}
	if err := got.br.Err(); err != nil {
		t.Errorf("bridge error after recovery: %v", err)
	}
	// The peer died after 6 steps; the newest checkpoint it provably
	// completed is at 4 steps (the shared 4-step cadence), so that is the
	// cycle both sides must have rewound to.
	if want := []clock.Cycles{4 * linkLat}; len(got.respawn) != 1 || got.respawn[0] != want[0] {
		t.Errorf("respawn cycles = %v, want %v", got.respawn, want)
	}
	if got.stats != control.stats {
		t.Errorf("node a stats diverged after recovery: %+v vs control %+v", got.stats, control.stats)
	}
	if !bytes.Equal(got.final, control.final) {
		t.Errorf("final partition state diverged after recovery (%d vs %d bytes)",
			len(got.final), len(control.final))
	}
}
