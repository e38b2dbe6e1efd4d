package softstack

import (
	"testing"

	"repro/internal/ethernet"
)

// TestNodeZeroSteadyStateAllocs: once warm, a window of Runner.Run over
// two nodes and a switch allocates nothing — for a ping train (typed
// kernel events, one queued send per pinger, frames parsed in place and
// encoded into recycled flit slices), for idle nodes, and for a raw
// stream.
func TestNodeZeroSteadyStateAllocs(t *testing.T) {
	const linkLat = 2 * usCycles
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}
	cases := []struct {
		name string
		arm  func(a, b *Node)
	}{
		{"ping", func(a, b *Node) {
			// Both directions, one echo every 4 windows, for far longer
			// than the test runs.
			a.Ping(0, b.IP(), 1000, 4*linkLat, nil)
			b.Ping(linkLat/2, a.IP(), 1000, 4*linkLat, nil)
		}},
		{"idle", func(a, b *Node) {}},
		{"stream", func(a, b *Node) { a.StartRawStream(0, b.MAC(), 200, 100, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mkNode("a", 0x1, 0x0a000001, arp)
			b := mkNode("b", 0x2, 0x0a000002, arp)
			r := twoNodeNet(t, a, b, linkLat)
			tc.arm(a, b)
			// Warm up: the first replies, pools, queues and buffers.
			if err := r.Run(64 * linkLat); err != nil {
				t.Fatal(err)
			}
			before := b.Stats().FramesRecv
			allocs := testing.AllocsPerRun(200, func() {
				if err := r.Run(linkLat); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm window allocated %v times", allocs)
			}
			if tc.name != "idle" && b.Stats().FramesRecv == before {
				t.Error("no frames delivered: the measured windows were idle")
			}
		})
	}
}

// TestPingIDSkipsLivePingers: the ICMP ID counter wraps at 65536, and an
// ID still held by a live pinger is skipped rather than reused, so a new
// Ping can neither replace a running train nor steal its sends.
func TestPingIDSkipsLivePingers(t *testing.T) {
	const linkLat = 2 * usCycles
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}
	a := mkNode("a", 0x1, 0x0a000001, arp)
	b := mkNode("b", 0x2, 0x0a000002, arp)
	r := twoNodeNet(t, a, b, linkLat)

	got := map[int]int{} // count -> results delivered
	ping := func(count int) {
		a.Ping(0, b.IP(), count, 30*usCycles, func(res []PingResult) { got[count] = len(res) })
	}
	ping(3) // takes ID 0
	a.nextID = 65535
	ping(4) // takes ID 65535
	ping(5) // ID 0 is live: must take ID 1
	for id, count := range map[uint16]int{0: 3, 65535: 4, 1: 5} {
		if p := a.pingers[id]; p == nil || p.count != count {
			t.Fatalf("pinger ID %d: got %+v, want the %d-echo train", id, p, count)
		}
	}
	for r.Cycle() < 2_000_000 && len(got) < 3 {
		if err := r.Run(linkLat * 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, count := range []int{3, 4, 5} {
		if got[count] != count {
			t.Errorf("%d-echo train delivered %d results", count, got[count])
		}
	}
	if err := a.Quiescent(); err != nil {
		t.Errorf("after all trains: %v", err)
	}
}
