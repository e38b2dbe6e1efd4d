package switchmodel

// Tests for the zero-allocation switch datapath: the steady-state alloc
// gates (dense, broadcast and idle rounds), the egress-ring capacity
// regression (the old append-and-reslice queue leaked its backing array
// head on every dequeue), the cached flood list, and the edge cases the
// rewrite had to preserve bit-for-bit: stalled-port + idle fast-forward
// interaction, a broadcast duplicate dropped at one port but delivered at
// the others, and MaxReleaseDelay staleness evaluated across a round
// boundary.

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/token"
)

func portMAC(p int) ethernet.MAC { return ethernet.MAC(0x0200_0000_0001) + ethernet.MAC(p) }

// TestSwitchZeroSteadyStateAllocs is the tentpole's alloc gate: once the
// pools and rings are warm, a full TickBatch round — dense traffic
// including a refcounted broadcast, or fully idle — performs zero heap
// allocations. scripts/check.sh runs this test explicitly.
func TestSwitchZeroSteadyStateAllocs(t *testing.T) {
	const n = 64
	sw := New(Config{Name: "tor", Ports: 4, SwitchingLatency: 10})
	benchSwitchMACs(sw.MACTable().Set)
	ins, outs := benchDenseInputs(t, n)

	dense := func() {
		for _, o := range outs {
			o.Reset(n)
		}
		sw.TickBatch(n, ins, outs)
	}
	for i := 0; i < 8; i++ {
		dense() // warm pools, rings, heap and batch slabs
	}
	if allocs := testing.AllocsPerRun(200, dense); allocs != 0 {
		t.Errorf("dense round allocates %.1f objects per TickBatch, want 0", allocs)
	}

	empty := make([]*token.Batch, 4)
	idleOuts := make([]*token.Batch, 4)
	for p := range empty {
		empty[p] = token.NewBatch(n)
		idleOuts[p] = token.NewBatch(n)
	}
	idle := func() { sw.TickBatch(n, empty, idleOuts) }
	idle()
	if allocs := testing.AllocsPerRun(200, idle); allocs != 0 {
		t.Errorf("idle round allocates %.1f objects per TickBatch, want 0", allocs)
	}
	if st := sw.Stats(); st.PacketsIn == 0 || st.PacketsOut == 0 || st.DropsUnroutable != 0 {
		t.Fatalf("gate traffic did not flow as expected: %+v", st)
	}
}

// TestIdleEarlyOutAdvancesCycle pins the early-out's observable behavior:
// a quiescent switch still advances its published cycle per round, and a
// partial ingress assembly (no Last token yet) does not defeat packet
// delivery once the rest of the frame arrives after many idle rounds.
func TestIdleEarlyOutAdvancesCycle(t *testing.T) {
	const n = 32
	sw := New(Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
	sw.MACTable().Set(portMAC(1), 1)
	flits := mkFrameFlits(t, portMAC(1), 0x1, 24) // 5 flits

	// First two flits only: the assembly stays partial across idle rounds.
	b := token.NewBatch(n)
	b.Put(0, token.Token{Data: flits[0], Valid: true})
	b.Put(1, token.Token{Data: flits[1], Valid: true})
	tick(sw, n, map[int]*token.Batch{0: b})
	for i := 0; i < 4; i++ {
		out := tick(sw, n, nil) // idle rounds: early-out path
		for p := range out {
			if !out[p].IsEmpty() {
				t.Fatalf("idle round %d: port %d carried tokens", i, p)
			}
		}
	}
	if got, want := sw.Cycle(), clock.Cycles(5*n); got != want {
		t.Fatalf("cycle after idle rounds = %d, want %d", got, want)
	}
	// Deliver the rest; the packet must assemble and egress normally.
	rest := token.NewBatch(n)
	for i, f := range flits[2:] {
		rest.Put(i, token.Token{Data: f, Valid: true, Last: i == 2})
	}
	outs := []*token.Batch{tick(sw, n, map[int]*token.Batch{0: rest})[1]}
	outs = append(outs, tick(sw, n, nil)[1])
	pkts, _ := collectPackets(outs, 0)
	if len(pkts) != 1 || len(pkts[0]) != 5 {
		t.Fatalf("got %d packets (flits %v), want the 5-flit frame", len(pkts), pkts)
	}
	if st := sw.Stats(); st.FlitsIn != 5 || st.PacketsIn != 1 || st.PacketsOut != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestOutQueueNoCapacityGrowth is the head-slicing regression gate: with
// packets continuously enqueued and drained (including stale drops), the
// egress ring's backing array must stop growing once it covers the
// steady-state occupancy, where the old append-and-reslice queue leaked
// its head cells and reallocated forever.
func TestOutQueueNoCapacityGrowth(t *testing.T) {
	const n = 64
	sw := New(Config{Name: "tor", Ports: 3, SwitchingLatency: 10, MaxReleaseDelay: 8})
	sw.MACTable().Set(portMAC(2), 2)
	f1 := mkFrameFlits(t, portMAC(2), 0xa, 16)
	f2 := mkFrameFlits(t, portMAC(2), 0xb, 16)
	for round := 0; round < 300; round++ {
		tick(sw, n, map[int]*token.Batch{
			0: packetBatch(n, 0, f1),
			1: packetBatch(n, 1, f2),
		})
	}
	if cap := len(sw.out[2].queue.buf); cap > 8 {
		t.Errorf("egress ring grew to %d cells across rounds, want a small steady-state bound", cap)
	}
	if free := len(sw.free); free > 8 {
		t.Errorf("packet pool grew to %d entries, want steady-state reuse", free)
	}
	st := sw.Stats()
	if st.PacketsIn != 600 || st.PacketsOut+st.DropsStale != 600 {
		t.Errorf("packet conservation violated: %+v", st)
	}
}

// TestFloodListCachedAndInvalidated covers the MACTableRouter satellite:
// broadcast/unknown routing reuses one flood list per ingress port instead
// of allocating per packet, and Set invalidates the cache.
func TestFloodListCachedAndInvalidated(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 4})
	r := sw.MACTable()
	pkt := &Packet{Flits: mkFrameFlits(t, ethernet.Broadcast, 0x1, 0), InPort: 1}

	a := r.Route(sw, pkt)
	b := r.Route(sw, pkt)
	want := []int{0, 2, 3}
	for i, p := range want {
		if a[i] != p {
			t.Fatalf("flood list = %v, want %v", a, want)
		}
	}
	if &a[0] != &b[0] {
		t.Error("repeated floods from one ingress port must share the cached list")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.Route(sw, pkt) }); allocs != 0 {
		t.Errorf("cached flood path allocates %.1f per Route, want 0", allocs)
	}

	// Table mutation invalidates the cache (and must not corrupt results).
	a[0] = 99 // simulate a stale cache being poisoned
	r.Set(portMAC(2), 2)
	c := r.Route(sw, pkt)
	for i, p := range want {
		if c[i] != p {
			t.Fatalf("flood list after Set = %v, want %v", c, want)
		}
	}

	// The unicast fast path reuses its scratch slab, too.
	uni := &Packet{Flits: mkFrameFlits(t, portMAC(2), 0x1, 0), InPort: 0}
	u1 := r.Route(sw, uni)
	if len(u1) != 1 || u1[0] != 2 {
		t.Fatalf("unicast route = %v, want [2]", u1)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.Route(sw, uni) }); allocs != 0 {
		t.Errorf("unicast path allocates %.1f per Route, want 0", allocs)
	}
}

// TestStallWithIdleFastForward pins the interaction between the stall hook
// and the idle fast-forward: while a hook is installed, every port-cycle
// is stall-checked, so StallCycles counts stalls on idle ports too and
// does not depend on where the host cuts its windows. The per-port
// fast-forward and the whole-switch idle early-out both stay off: round 2
// is fully idle and still counts its stalls.
func TestStallWithIdleFastForward(t *testing.T) {
	const n = 64
	sw := New(Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
	sw.MACTable().Set(portMAC(1), 1)
	// Stall port 1 over [0,20), [40,45) and [64,70). The [40,45) window
	// falls while the port is idle between its two packets, and [64,70)
	// in a round with nothing queued: both are counted.
	sw.SetStall(func(port int, cycle clock.Cycles) bool {
		if port != 1 {
			return false
		}
		return cycle < 20 || (cycle >= 40 && cycle < 45) || (cycle >= 64 && cycle < 70)
	})
	flits := mkFrameFlits(t, portMAC(1), 0x1, 8) // 3 flits

	b := token.NewBatch(n)
	for i, f := range flits {
		b.Put(3+i, token.Token{Data: f, Valid: true, Last: i == 2}) // release 5+10 = 15
	}
	for i, f := range flits {
		b.Put(38+i, token.Token{Data: f, Valid: true, Last: i == 2}) // release 40+10 = 50
	}
	out1 := tick(sw, n, map[int]*token.Batch{0: b})
	pkts, lasts := collectPackets([]*token.Batch{out1[1]}, 0)
	if len(pkts) != 2 {
		t.Fatalf("got %d packets, want 2", len(pkts))
	}
	// First: release 15, held by the stall to cycle 20, last flit at 22.
	// Second: release 50, after the [40,45) stall has passed; last at 52.
	if lasts[0] != 22 || lasts[1] != 52 {
		t.Errorf("last-flit cycles = %v, want [22 52]", lasts)
	}
	if got := sw.Stats().StallCycles; got != 25 {
		t.Errorf("round 1 StallCycles = %d, want 25 (stalls on an idle port count)", got)
	}

	// Round 2 is fully idle but the stall hook is installed: the early-out
	// must stay off, and the stalled cycles [64,70) are counted.
	out2 := tick(sw, n, nil)
	if !out2[1].IsEmpty() {
		t.Error("idle round emitted tokens")
	}
	if got := sw.Stats().StallCycles; got != 31 {
		t.Errorf("after idle round StallCycles = %d, want 31", got)
	}
}

// TestBroadcastPartialDrop covers the refcounted fan-out edge: one
// broadcast duplicate overflows a congested port and is dropped there,
// while the other ports deliver it. Byte accounting must return to zero
// and the shared packet must be recycled exactly once.
func TestBroadcastPartialDrop(t *testing.T) {
	const n = 64
	// Buffer fits one 24-byte frame plus change, not two.
	sw := New(Config{Name: "tor", Ports: 4, SwitchingLatency: 10, OutputBufferBytes: 40})
	sw.MACTable().Set(portMAC(1), 1)
	uni := mkFrameFlits(t, portMAC(1), 0xa, 8)        // 3 flits = 24 bytes
	bc := mkFrameFlits(t, ethernet.Broadcast, 0xb, 8) // 3 flits = 24 bytes
	out := tick(sw, n, map[int]*token.Batch{
		3: packetBatch(n, 0, uni), // release 12: drains into port 1 first
		0: packetBatch(n, 3, bc),  // release 15: overflows port 1, lands on 2 and 3
	})
	gotUni, _ := collectPackets([]*token.Batch{out[1]}, 0)
	if len(gotUni) != 1 || len(gotUni[0]) != 3 {
		t.Fatalf("port 1: got %d packets, want only the unicast", len(gotUni))
	}
	for _, p := range []int{2, 3} {
		pk, _ := collectPackets([]*token.Batch{out[p]}, 0)
		if len(pk) != 1 {
			t.Fatalf("port %d: got %d packets, want the broadcast duplicate", p, len(pk))
		}
		if got := ethernet.DstFromFirstFlit(pk[0][0]); got != ethernet.Broadcast {
			t.Errorf("port %d delivered dst %v, want broadcast", p, got)
		}
	}
	if !out[0].IsEmpty() {
		t.Error("broadcast reflected to its ingress port")
	}
	st := sw.Stats()
	if st.DropsBufFull != 1 {
		t.Errorf("DropsBufFull = %d, want 1 (port 1's duplicate)", st.DropsBufFull)
	}
	if st.PacketsOut != 3 || st.FlitsOut != 9 {
		t.Errorf("delivered %d packets / %d flits, want 3 / 9: %+v", st.PacketsOut, st.FlitsOut, st)
	}
	for p := range sw.out {
		if got := sw.out[p].queuedBytes; got != 0 {
			t.Errorf("port %d queuedBytes = %d after full drain, want 0", p, got)
		}
	}
	// Both assembled packets (unicast, shared broadcast) are back in the
	// pool exactly once each.
	if got := len(sw.free); got != 2 {
		t.Errorf("packet pool holds %d packets, want 2", got)
	}
}

// TestStaleDropAtRoundBoundary pins MaxReleaseDelay evaluation across a
// round boundary: a packet held up by a stall becomes droppable the first
// cycle of the next round iff its age then exceeds the bound.
func TestStaleDropAtRoundBoundary(t *testing.T) {
	run := func(maxDelay clock.Cycles) (Stats, [][]uint64, []int64) {
		const n = 32
		sw := New(Config{Name: "tor", Ports: 2, SwitchingLatency: 10, MaxReleaseDelay: maxDelay})
		sw.MACTable().Set(portMAC(1), 1)
		// Last flit at cycle 2: release 12. The stall pins the port for
		// all of round 1, so its first release opportunity is cycle 32 —
		// the first cycle of round 2 — at age 32-12 = 20.
		sw.SetStall(func(port int, cycle clock.Cycles) bool { return port == 1 && cycle < 32 })
		flits := mkFrameFlits(t, portMAC(1), 0x1, 8)
		var outs []*token.Batch
		outs = append(outs, tick(sw, 32, map[int]*token.Batch{0: packetBatch(32, 0, flits)})[1])
		outs = append(outs, tick(sw, 32, nil)[1])
		pkts, lasts := collectPackets(outs, 0)
		return sw.Stats(), pkts, lasts
	}

	// Age 20 == bound: still releasable, egresses 32..34.
	st, pkts, lasts := run(20)
	if len(pkts) != 1 || st.DropsStale != 0 {
		t.Fatalf("maxDelay=20: packets=%d stats=%+v, want delivery", len(pkts), st)
	}
	if lasts[0] != 34 {
		t.Errorf("maxDelay=20: last flit at %d, want 34", lasts[0])
	}

	// Age 20 > bound 19: dropped on the first cycle of round 2.
	st, pkts, _ = run(19)
	if len(pkts) != 0 || st.DropsStale != 1 {
		t.Errorf("maxDelay=19: packets=%d stats=%+v, want stale drop at the boundary", len(pkts), st)
	}
}
