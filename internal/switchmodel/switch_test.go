package switchmodel

import (
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/token"
)

// mkFrameFlits builds a small frame's flits destined for dst.
func mkFrameFlits(t *testing.T, dst, src ethernet.MAC, payloadLen int) []uint64 {
	t.Helper()
	f := &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeIPv4, Payload: make([]byte, payloadLen)}
	flits, err := f.FrameFlits()
	if err != nil {
		t.Fatal(err)
	}
	return flits
}

// tick runs one TickBatch with the given per-port input batches (nil means
// empty) and returns the output batches.
func tick(sw *Switch, n int, ins map[int]*token.Batch) []*token.Batch {
	in := make([]*token.Batch, sw.NumPorts())
	out := make([]*token.Batch, sw.NumPorts())
	empty := token.NewBatch(n)
	for p := 0; p < sw.NumPorts(); p++ {
		if b, ok := ins[p]; ok {
			in[p] = b
		} else {
			in[p] = empty
		}
		out[p] = token.NewBatch(n)
	}
	sw.TickBatch(n, in, out)
	return out
}

// packetBatch lays the flits of a packet into a batch starting at offset.
func packetBatch(n, offset int, flits []uint64) *token.Batch {
	b := token.NewBatch(n)
	for i, f := range flits {
		b.Put(offset+i, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
	}
	return b
}

// collectPackets extracts completed packets (as flit slices) with the
// absolute cycle of their last flit from a sequence of output batches.
func collectPackets(batches []*token.Batch, startCycle int64) (pkts [][]uint64, lastCycles []int64) {
	var cur []uint64
	cycle := startCycle
	for _, b := range batches {
		b.Each(func(offset int, tok token.Token) {
			cur = append(cur, tok.Data)
			if tok.Last {
				pkts = append(pkts, cur)
				lastCycles = append(lastCycles, cycle+int64(offset))
				cur = nil
			}
		})
		cycle += int64(b.N)
	}
	return pkts, lastCycles
}

func TestUnicastRoutingAndTiming(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 4, SwitchingLatency: 10})
	dst := ethernet.MAC(0x2222)
	sw.MACTable().Set(dst, 2)
	flits := mkFrameFlits(t, dst, 0x1111, 8) // 16+8=24 bytes = 3 flits

	const n = 64
	out1 := tick(sw, n, map[int]*token.Batch{0: packetBatch(n, 5, flits)})
	// Packet's last flit arrives at cycle 5+len-1 = 7; release = 17.
	// Egress must start exactly at cycle 17 on port 2 and nowhere else.
	for p := 0; p < 4; p++ {
		if p != 2 && !out1[p].IsEmpty() {
			t.Errorf("port %d unexpectedly carried %d tokens", p, out1[p].Occupied())
		}
	}
	got := out1[2]
	wantStart := 5 + len(flits) - 1 + 10
	for i, f := range flits {
		tok := got.At(wantStart + i)
		if !tok.Valid || tok.Data != f {
			t.Fatalf("cycle %d: got %v, want flit %#x", wantStart+i, tok, f)
		}
		if (i == len(flits)-1) != tok.Last {
			t.Errorf("cycle %d: Last = %v", wantStart+i, tok.Last)
		}
	}
	if got.At(wantStart - 1).Valid {
		t.Error("packet released before minimum switching latency")
	}
	st := sw.Stats()
	if st.PacketsIn != 1 || st.PacketsOut != 1 || st.FlitsIn != uint64(len(flits)) || st.FlitsOut != uint64(len(flits)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestPacketSpanningBatches(t *testing.T) {
	// A packet whose flits straddle a batch boundary must still assemble.
	sw := New(Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
	dst := ethernet.MAC(0xbeef)
	sw.MACTable().Set(dst, 1)
	flits := mkFrameFlits(t, dst, 0x1, 24) // 5 flits

	const n = 4
	b1 := token.NewBatch(n)
	for i := 0; i < 3; i++ {
		b1.Put(i+1, token.Token{Data: flits[i], Valid: true})
	}
	b2 := token.NewBatch(n)
	b2.Put(0, token.Token{Data: flits[3], Valid: true})
	b2.Put(1, token.Token{Data: flits[4], Valid: true, Last: true})

	var outs []*token.Batch
	outs = append(outs, tick(sw, n, map[int]*token.Batch{0: b1})[1])
	outs = append(outs, tick(sw, n, map[int]*token.Batch{0: b2})[1])
	for i := 0; i < 6; i++ {
		outs = append(outs, tick(sw, n, nil)[1])
	}
	pkts, lasts := collectPackets(outs, 0)
	if len(pkts) != 1 {
		t.Fatalf("got %d packets, want 1", len(pkts))
	}
	if len(pkts[0]) != 5 {
		t.Errorf("reassembled %d flits, want 5", len(pkts[0]))
	}
	// last input flit at absolute cycle 5; release 15; 5 flits -> last out at 19
	if lasts[0] != 19 {
		t.Errorf("last flit egressed at cycle %d, want 19", lasts[0])
	}
}

func TestBroadcastFlood(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 4})
	flits := mkFrameFlits(t, ethernet.Broadcast, 0x1, 0)
	out := tick(sw, 64, map[int]*token.Batch{1: packetBatch(64, 0, flits)})
	for p := 0; p < 4; p++ {
		want := p != 1 // flooded everywhere except ingress
		if got := !out[p].IsEmpty(); got != want {
			t.Errorf("port %d: carried data = %v, want %v", p, got, want)
		}
	}
	if st := sw.Stats(); st.PacketsOut != 3 {
		t.Errorf("PacketsOut = %d, want 3 (duplicated)", st.PacketsOut)
	}
}

func TestUnknownDestinationFloods(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 3})
	flits := mkFrameFlits(t, ethernet.MAC(0xdead), 0x1, 0) // not in table
	out := tick(sw, 64, map[int]*token.Batch{0: packetBatch(64, 0, flits)})
	if out[0].Occupied() != 0 || out[1].IsEmpty() || out[2].IsEmpty() {
		t.Error("unknown destination should flood to all non-ingress ports")
	}
}

func TestReflectionDropped(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 2})
	dst := ethernet.MAC(0x77)
	sw.MACTable().Set(dst, 0) // dst lives on the ingress port
	flits := mkFrameFlits(t, dst, 0x1, 0)
	out := tick(sw, 64, map[int]*token.Batch{0: packetBatch(64, 0, flits)})
	for p := range out {
		if !out[p].IsEmpty() {
			t.Errorf("port %d should be silent", p)
		}
	}
	if st := sw.Stats(); st.DropsUnroutable != 1 {
		t.Errorf("DropsUnroutable = %d, want 1", st.DropsUnroutable)
	}
}

func TestOutputContentionSerialises(t *testing.T) {
	// Two ports send simultaneously to the same destination; the switch
	// must serialise them on the output port with no loss.
	sw := New(Config{Name: "tor", Ports: 3, SwitchingLatency: 10})
	dst := ethernet.MAC(0x3333)
	sw.MACTable().Set(dst, 2)
	f1 := mkFrameFlits(t, dst, 0xa, 16) // 4 flits
	f2 := mkFrameFlits(t, dst, 0xb, 16)

	const n = 64
	outs := []*token.Batch{tick(sw, n, map[int]*token.Batch{
		0: packetBatch(n, 0, f1),
		1: packetBatch(n, 0, f2),
	})[2]}
	pkts, lasts := collectPackets(outs, 0)
	if len(pkts) != 2 {
		t.Fatalf("got %d packets, want 2", len(pkts))
	}
	// First packet: release 3+10=13, 4 flits -> last at 16.
	// Second must follow immediately: flits 17..20, last at 20.
	if lasts[0] != 16 || lasts[1] != 20 {
		t.Errorf("last cycles = %v, want [16 20]", lasts)
	}
	if sw.Stats().DropsBufFull != 0 {
		t.Error("unexpected drops")
	}
}

func TestTieBreakIsDeterministic(t *testing.T) {
	// Identical timestamps must drain in ingress-port order every run:
	// the pending queue breaks Release ties on InPort.
	for trial := 0; trial < 5; trial++ {
		sw := New(Config{Name: "tor", Ports: 3})
		dst := ethernet.MAC(0x1)
		sw.MACTable().Set(dst, 2)
		f1 := mkFrameFlits(t, dst, 0xaaaa, 0)
		f2 := mkFrameFlits(t, dst, 0xbbbb, 0)
		out := tick(sw, 64, map[int]*token.Batch{
			0: packetBatch(64, 0, f1),
			1: packetBatch(64, 0, f2),
		})
		pkts, _ := collectPackets([]*token.Batch{out[2]}, 0)
		if len(pkts) != 2 {
			t.Fatalf("got %d packets", len(pkts))
		}
		fr, err := ethernet.ParseFrame(ethernet.FromFlits(pkts[0]))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Src != 0xaaaa {
			t.Errorf("trial %d: first packet from %v, want port-0 packet first", trial, fr.Src)
		}
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	// Output buffer sized for one small packet only; the second of two
	// simultaneous packets must be dropped at full-packet granularity.
	sw := New(Config{Name: "tor", Ports: 3, OutputBufferBytes: 24})
	dst := ethernet.MAC(0x1)
	sw.MACTable().Set(dst, 2)
	f1 := mkFrameFlits(t, dst, 0xa, 0) // 16 bytes = 2 flits
	f2 := mkFrameFlits(t, dst, 0xb, 0)
	out := tick(sw, 64, map[int]*token.Batch{
		0: packetBatch(64, 0, f1),
		1: packetBatch(64, 0, f2),
	})
	pkts, _ := collectPackets([]*token.Batch{out[2]}, 0)
	if len(pkts) != 1 {
		t.Fatalf("got %d packets, want 1 (second dropped)", len(pkts))
	}
	if st := sw.Stats(); st.DropsBufFull != 1 {
		t.Errorf("DropsBufFull = %d, want 1", st.DropsBufFull)
	}
}

func TestStaleDrop(t *testing.T) {
	// With MaxReleaseDelay set, a packet stuck behind a long transmission
	// beyond the bound is dropped rather than released.
	sw := New(Config{Name: "tor", Ports: 3, SwitchingLatency: 10, MaxReleaseDelay: 5})
	dst := ethernet.MAC(0x1)
	sw.MACTable().Set(dst, 2)
	big := mkFrameFlits(t, dst, 0xa, 400) // 52 flits: occupies the port a while
	small := mkFrameFlits(t, dst, 0xb, 0)

	const n = 128
	out := tick(sw, n, map[int]*token.Batch{
		0: packetBatch(n, 0, big),    // last flit at 51, release 61, tx 61..112
		1: packetBatch(n, 70, small), // last flit at 71, release 81
	})
	pkts, _ := collectPackets([]*token.Batch{out[2]}, 0)
	// The small packet queues behind the big transmission; by the time the
	// port frees at cycle 113 it is 32 cycles past its release timestamp,
	// beyond MaxReleaseDelay=5, so it must be dropped.
	if len(pkts) != 1 {
		t.Fatalf("got %d packets, want 1", len(pkts))
	}
	if st := sw.Stats(); st.DropsStale != 1 {
		t.Errorf("DropsStale = %d, want 1", st.DropsStale)
	}
}

// TestProbeCountsFlits checks that the probe fires once per released flit
// with that flit's absolute cycle and port: the probe calls, in order, must
// be exactly the out-batch slots at their absolute cycles. Egress writes a
// run of flits at a time, so the cases cut runs at a window boundary, at
// every fourth cycle, and at a stalled cycle in the middle of a packet.
func TestProbeCountsFlits(t *testing.T) {
	dst := ethernet.MAC(0x9)
	flits := mkFrameFlits(t, dst, 0x2, 200)
	// The last flit arrives at cycle 40, so egress starts at 40+10 = 50
	// and, unstalled, ends at 50+len-1, past the 64-cycle boundary.
	const lastArrival, release, horizon = 40, 50, 128
	first := lastArrival - (len(flits) - 1)
	cases := []struct {
		name      string
		n         int
		stall     func(port int, cycle clock.Cycles) bool
		stalls    uint64
		lastCycle clock.Cycles
	}{
		{"packet spans a window boundary", 64, nil, 0, release + clock.Cycles(len(flits)-1)},
		{"window of 4 cycles", 4, nil, 0, release + clock.Cycles(len(flits)-1)},
		{"port 1 stalled mid-packet", 64, func(port int, cycle clock.Cycles) bool {
			return port == 1 && cycle >= 55 && cycle < 59
		}, 4, release + clock.Cycles(len(flits)-1) + 4},
	}
	type hit struct {
		cycle clock.Cycles
		port  int
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := New(Config{Name: "root", Ports: 2})
			sw.MACTable().Set(dst, 1)
			sw.SetStall(tc.stall)
			var probes, slots []hit
			sw.SetProbe(func(cycle clock.Cycles, port int) { probes = append(probes, hit{cycle, port}) })
			for start := 0; start < horizon; start += tc.n {
				in := token.NewBatch(tc.n)
				for i, f := range flits {
					if c := first + i; c >= start && c < start+tc.n {
						in.Put(c-start, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
					}
				}
				for p, b := range tick(sw, tc.n, map[int]*token.Batch{0: in}) {
					b.Each(func(offset int, _ token.Token) {
						slots = append(slots, hit{clock.Cycles(start) + clock.Cycles(offset), p})
					})
				}
			}
			if len(slots) != len(flits) || slots[0] != (hit{release, 1}) || slots[len(slots)-1] != (hit{tc.lastCycle, 1}) {
				t.Fatalf("egress slots %v: want %d flits on port 1 over cycles [%d, %d]", slots, len(flits), release, tc.lastCycle)
			}
			if !slices.Equal(probes, slots) {
				t.Errorf("probe calls %v, want the out-batch slots %v", probes, slots)
			}
			if got := sw.Stats().StallCycles; got != tc.stalls {
				t.Errorf("StallCycles = %d, want %d", got, tc.stalls)
			}
		})
	}
}

// TestEndToEndThroughRunner wires source -> switch -> sink through the fame
// runner and checks the full path delay: send cycle + flits + link latency
// (x2) + switching latency.
func TestEndToEndThroughRunner(t *testing.T) {
	const linkLat = 16
	r := fame.NewRunner()
	src := fame.NewSource("src")
	sink := fame.NewSink("sink")
	sw := New(Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
	dstMAC := ethernet.MAC(0x0200_0000_0002)
	sw.MACTable().Set(dstMAC, 1)

	r.Add(src)
	r.Add(sink)
	r.Add(sw)
	if err := r.Connect(src, 0, sw, 0, linkLat); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(sw, 1, sink, 0, linkLat); err != nil {
		t.Fatal(err)
	}

	flits := mkFrameFlits(t, dstMAC, 0x0200_0000_0001, 8) // 3 flits
	src.EmitPacketAt(0, flits)
	if err := r.Run(linkLat * 16); err != nil {
		t.Fatal(err)
	}

	// Last flit emitted at cycle 2, reaches switch at 2+16=18, release
	// 18+10=28, flits egress 28..30, arrive at sink 44..46.
	if len(sink.Received) != len(flits) {
		t.Fatalf("sink received %d flits, want %d", len(sink.Received), len(flits))
	}
	if got := sink.Received[0].Cycle; got != 44 {
		t.Errorf("first flit arrived at %d, want 44", got)
	}
	if got := sink.Received[2]; got.Cycle != 46 || !got.Tok.Last {
		t.Errorf("last flit: %+v, want cycle 46 with Last", got)
	}
}

// TestStallHook checks that an installed stall hook suppresses egress for
// exactly its window, delaying (not dropping) traffic, and that stalled
// port-cycles are counted.
func TestStallHook(t *testing.T) {
	sw := New(Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
	dst := ethernet.MAC(0x2222)
	sw.MACTable().Set(dst, 1)
	flits := mkFrameFlits(t, dst, 0x1111, 8)

	// Stall port 1 for cycles [0, 40).
	const stallEnd = 40
	sw.SetStall(func(port int, cycle clock.Cycles) bool {
		return port == 1 && cycle < stallEnd
	})

	const n = 64
	out := tick(sw, n, map[int]*token.Batch{0: packetBatch(n, 5, flits)})
	pkts, last := collectPackets([]*token.Batch{out[1]}, 0)
	if len(pkts) != 1 {
		t.Fatalf("got %d packets through stalled port, want 1", len(pkts))
	}
	// Without the stall the release would start at cycle 17 (arrival 7 +
	// latency 10); the stall holds it to cycle 40, so the last of the 3
	// flits egresses at 42.
	if want := int64(stallEnd + len(flits) - 1); last[0] != want {
		t.Errorf("last flit at cycle %d, want %d", last[0], want)
	}
	if got := sw.Stats().StallCycles; got != stallEnd {
		t.Errorf("StallCycles = %d, want %d", got, stallEnd)
	}
}
