package transport

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
	"repro/internal/token"
)

// TestCodecRoundTrip guards the v2 oracle (v2_test.go) that the v3 codec
// tests compare against.
func TestCodecRoundTrip(t *testing.T) {
	check := func(pattern uint16, n uint8) bool {
		size := int(n)%60 + 4
		b := token.NewBatch(size)
		for i := 0; i < size && i < 16; i++ {
			if pattern&(1<<i) != 0 {
				b.Put(i, token.Token{Data: uint64(i) * 31, Valid: true, Last: i%2 == 0})
			}
		}
		var buf bytes.Buffer
		if err := writeBatch(&buf, b); err != nil {
			return false
		}
		got := token.NewBatch(1)
		if err := readBatch(&buf, got); err != nil {
			return false
		}
		return reflect.DeepEqual(b, got)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestDistributedEquivalence splits a two-node topology across two Runner
// instances joined by a TCP Bridge pair and verifies that a ping
// measurement is bit-identical to the single-runner simulation of the
// same target: the transport must not perturb cycle-exactness.
func TestDistributedEquivalence(t *testing.T) {
	const linkLat = 6400 // 2 us
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}
	mkA := func() *softstack.Node {
		return softstack.NewNode(softstack.Config{Name: "a", MAC: 0x1, IP: 0x0a000001, Seed: 1, StaticARP: arp})
	}
	mkB := func() *softstack.Node {
		return softstack.NewNode(softstack.Config{Name: "b", MAC: 0x2, IP: 0x0a000002, Seed: 2, StaticARP: arp})
	}

	// Reference: everything in one runner. Topology: A -- switch -- B with
	// the A-side link split in half so the distributed version can place
	// the bridge at the midpoint with identical total latency.
	reference := func() []softstack.PingResult {
		a, b := mkA(), mkB()
		wire := fame.NewWire("mid")
		sw := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
		sw.MACTable().Set(0x1, 0)
		sw.MACTable().Set(0x2, 1)
		r := fame.NewRunner()
		for _, e := range []fame.Endpoint{a, b, wire, sw} {
			r.Add(e)
		}
		if err := r.Connect(a, 0, wire, 0, linkLat/2); err != nil {
			t.Fatal(err)
		}
		if err := r.Connect(wire, 1, sw, 0, linkLat/2); err != nil {
			t.Fatal(err)
		}
		if err := r.Connect(b, 0, sw, 1, linkLat); err != nil {
			t.Fatal(err)
		}
		var res []softstack.PingResult
		a.Ping(0, 0x0a000002, 5, 50*3200, func(r []softstack.PingResult) { res = r })
		for r.Cycle() < 4_000_000 && res == nil {
			if err := r.Run(linkLat); err != nil {
				t.Fatal(err)
			}
		}
		return res
	}

	distributed := func() []softstack.PingResult {
		c1, c2 := net.Pipe()
		var res []softstack.PingResult

		var wg sync.WaitGroup
		wg.Add(1)
		// Host 2: switch + node B + bridge half.
		go func() {
			defer wg.Done()
			b := mkB()
			sw := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2, SwitchingLatency: 10})
			sw.MACTable().Set(0x1, 0)
			sw.MACTable().Set(0x2, 1)
			br := NewBridgeConfig("bridge2", c2, BridgeConfig{})
			r := fame.NewRunner()
			for _, e := range []fame.Endpoint{b, sw, br} {
				r.Add(e)
			}
			if err := r.Connect(br, 0, sw, 0, linkLat/2); err != nil {
				panic(err)
			}
			if err := r.Connect(b, 0, sw, 1, linkLat); err != nil {
				panic(err)
			}
			for r.Cycle() < 4_000_000 && br.Err() == nil {
				if err := r.Run(linkLat); err != nil {
					panic(err)
				}
			}
		}()

		// Host 1: node A + bridge half.
		a := mkA()
		br := NewBridgeConfig("bridge1", c1, BridgeConfig{})
		r := fame.NewRunner()
		r.Add(a)
		r.Add(br)
		if err := r.Connect(a, 0, br, 0, linkLat/2); err != nil {
			t.Fatal(err)
		}
		a.Ping(0, 0x0a000002, 5, 50*3200, func(rs []softstack.PingResult) { res = rs })
		for r.Cycle() < 4_000_000 && br.Err() == nil {
			if err := r.Run(linkLat); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if br.Err() != nil {
			t.Fatalf("bridge error: %v", br.Err())
		}
		return res
	}

	ref := reference()
	if ref == nil {
		t.Fatal("reference ping did not complete")
	}
	dist := distributed()
	if dist == nil {
		t.Fatal("distributed ping did not complete")
	}
	if !reflect.DeepEqual(ref, dist) {
		t.Errorf("distributed results differ from single-host:\nref:  %+v\ndist: %+v", ref, dist)
	}
}

func TestBridgeStepMismatch(t *testing.T) {
	c1, c2 := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Peer side runs with a 32-cycle step; local side uses 16. The
		// handshake must reject the pairing on both ends.
		peer := NewBridgeConfig("peer", c2, BridgeConfig{})
		in := []*token.Batch{token.NewBatch(32)}
		out := []*token.Batch{token.NewBatch(32)}
		peer.TickBatch(32, in, out)
		if peer.Err() == nil {
			t.Error("peer did not detect step mismatch")
		}
	}()
	br := NewBridgeConfig("br", c1, BridgeConfig{})
	in := []*token.Batch{token.NewBatch(16)}
	out := []*token.Batch{token.NewBatch(16)}
	br.TickBatch(16, in, out)
	<-done
	if br.Err() == nil {
		t.Fatal("step mismatch not detected")
	}
	if !strings.Contains(br.Err().Error(), "step") {
		t.Errorf("error %q does not describe the step mismatch", br.Err())
	}
}

func TestClock(t *testing.T) {
	// Silence the unused import check for clock while documenting the
	// batch-per-link-latency convention.
	if clock.Cycles(6400) != clock.New(clock.DefaultTargetClock).CyclesInMicros(2) {
		t.Error("2 us at 3.2 GHz should be 6400 cycles")
	}
}

// TestBridgeOverRealTCP runs the distributed split over an actual
// localhost TCP connection (kernel-buffered, like the paper's inter-host
// transport) rather than a synchronous in-memory pipe.
func TestBridgeOverRealTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const linkLat = 3200
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}

	done := make(chan []softstack.PingResult, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		defer conn.Close()
		// Host 2: node B behind the bridge.
		b := softstack.NewNode(softstack.Config{Name: "b", MAC: 0x2, IP: 0x0a000002, StaticARP: arp})
		br := NewBridgeConfig("bridge2", conn, BridgeConfig{})
		r := fame.NewRunner()
		r.Add(b)
		r.Add(br)
		if err := r.Connect(b, 0, br, 0, linkLat); err != nil {
			panic(err)
		}
		for r.Cycle() < 3_000_000 && br.Err() == nil {
			if err := r.Run(linkLat * 2); err != nil {
				panic(err)
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Host 1: node A behind the other bridge half. Total path latency is
	// 2*linkLat each way (A->bridge + bridge->B).
	a := softstack.NewNode(softstack.Config{Name: "a", MAC: 0x1, IP: 0x0a000001, StaticARP: arp})
	br := NewBridgeConfig("bridge1", conn, BridgeConfig{})
	r := fame.NewRunner()
	r.Add(a)
	r.Add(br)
	if err := r.Connect(a, 0, br, 0, linkLat); err != nil {
		t.Fatal(err)
	}
	var res []softstack.PingResult
	a.Ping(0, 0x0a000002, 3, 100*3200, func(rs []softstack.PingResult) { res = rs })
	for r.Cycle() < 3_000_000 && res == nil && br.Err() == nil {
		if err := r.Run(linkLat * 2); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case done <- res:
	default:
	}
	if br.Err() != nil {
		t.Fatalf("bridge error: %v", br.Err())
	}
	if res == nil {
		t.Fatal("ping over TCP bridge did not complete")
	}
	// RTT = 4 link crossings (A->bridge and bridge->B, each direction; the
	// bridge pair itself is a zero-latency wire) + kernel costs.
	wantNet := clock.Cycles(4 * linkLat)
	overhead := clock.Cycles(34 * 3200)
	for _, pr := range res {
		diff := pr.RTT - (wantNet + overhead)
		if diff < 0 {
			diff = -diff
		}
		if diff > 3200 {
			t.Errorf("seq %d: RTT = %d cycles, want ~%d", pr.Seq, pr.RTT, wantNet+overhead)
		}
	}
}
