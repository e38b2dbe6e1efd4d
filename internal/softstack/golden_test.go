package softstack

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/snapshot/snaptest"
	"repro/internal/switchmodel"
	"repro/internal/token"
)

// goldenTrace pins a scenario's observable behaviour: every output token
// of every node, window by window; the application-visible callbacks
// (ping results, UDP deliveries, At firings); the final Stats; and the
// final checkpoint bytes, which include the event sequence counter.
type goldenTrace struct {
	tokens, log, stats, save uint64
}

// tap records a node's output tokens into a shared hash as the runner
// ticks it.
type tap struct {
	*Node
	idx int
	h   hash.Hash64
	// mangle, when set, may corrupt the node's input before it ticks.
	mangle func(idx int, start clock.Cycles, in *token.Batch)
}

func (t *tap) TickBatch(n int, in, out []*token.Batch) {
	start := t.Now()
	if t.mangle != nil {
		t.mangle(t.idx, start, in[0])
	}
	t.Node.TickBatch(n, in, out)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		t.h.Write(b[:])
	}
	put(uint64(t.idx))
	put(uint64(start))
	put(uint64(out[0].Occupied()))
	out[0].Each(func(offset int, tok token.Token) {
		put(uint64(offset))
		put(tok.Data)
		if tok.Last {
			put(1)
		} else {
			put(0)
		}
	})
}

// goldenRack is a 4-node rack on 0.5 us links: a window is far shorter
// than a kernel crossing, so every ping train spans many windows.
type goldenRack struct {
	nodes  []*Node
	taps   []*tap
	runner *fame.Runner
	tokens hash.Hash64
	log    hash.Hash64
}

const goldenLink = 1600

func newGoldenRack(t *testing.T, staticARP bool) *goldenRack {
	t.Helper()
	g := &goldenRack{runner: fame.NewRunner(), tokens: fnv.New64a(), log: fnv.New64a()}
	arp := map[ethernet.IP]ethernet.MAC{}
	for i := 0; i < 4; i++ {
		arp[ethernet.IP(0x0a000001+i)] = ethernet.MAC(0x10 + i)
	}
	if !staticARP {
		arp = nil
	}
	sw := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 4, SwitchingLatency: 10})
	g.runner.Add(sw)
	for i := 0; i < 4; i++ {
		n := NewNode(Config{Name: fmt.Sprintf("n%d", i), MAC: ethernet.MAC(0x10 + i), IP: ethernet.IP(0x0a000001 + i),
			Cores: 2, Seed: uint64(11 + i), StaticARP: arp})
		g.nodes = append(g.nodes, n)
		sw.MACTable().Set(n.MAC(), i)
		tp := &tap{Node: n, idx: i, h: g.tokens}
		g.taps = append(g.taps, tp)
		g.runner.Add(tp)
		if err := g.runner.Connect(tp, 0, sw, i, goldenLink); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (g *goldenRack) record(vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		g.log.Write(b[:])
	}
}

// ping arms a ping whose results are folded into the log.
func (g *goldenRack) ping(src, dst int, start clock.Cycles, count int, interval clock.Cycles) {
	g.nodes[src].Ping(start, g.nodes[dst].IP(), count, interval, func(res []PingResult) {
		g.record(uint64(src), uint64(dst), uint64(len(res)))
		for _, r := range res {
			g.record(uint64(r.Seq), uint64(r.RTT))
		}
	})
}

func (g *goldenRack) finish(t *testing.T, cycles clock.Cycles) goldenTrace {
	t.Helper()
	for g.runner.Cycle() < cycles {
		if err := g.runner.Run(goldenLink); err != nil {
			t.Fatal(err)
		}
	}
	stats, save := fnv.New64a(), fnv.New64a()
	for _, n := range g.nodes {
		st := n.Stats()
		fmt.Fprintf(stats, "%+v;", st)
		if n.Quiescent() != nil {
			save.Write([]byte("busy"))
			continue
		}
		save.Write(snaptest.Save(t, n))
	}
	return goldenTrace{tokens: g.tokens.Sum64(), log: g.log.Sum64(), stats: stats.Sum64(), save: save.Sum64()}
}

const us = clock.Cycles(usCycles)

var goldenScenarios = []struct {
	name string
	want goldenTrace
	run  func(t *testing.T) goldenTrace
}{
	{"static-arp", goldenTrace{0xcc1b3ba9fecb6e9d, 0x2ba97707e53eda85, 0x272cbc1a984df6a4, 0x56b84a8c083575e5}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, true)
		g.ping(0, 1, 0, 6, 40*us)
		g.ping(2, 3, 7*us, 3, 100*us)
		return g.finish(t, 700*us)
	}},
	{"cold-arp", goldenTrace{0x4d203b98a540bdc0, 0x6a79cc0b3d58c88b, 0x807eea75ca310acd, 0xb228a7c03c6e1902}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, false)
		g.ping(0, 2, 0, 4, 30*us)
		g.ping(3, 0, 5*us, 3, 25*us)
		g.ping(1, 2, 5*us, 2, 0) // two trains waiting on the same ARP at once
		return g.finish(t, 500*us)
	}},
	{"two-pingers", goldenTrace{0xa1d764a4b5b26d29, 0xc7940e27e7cd0149, 0x7f8c366aad89fa16, 0x24f70b9fa23b583b}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, true)
		g.ping(0, 1, 0, 5, 30*us)
		g.ping(0, 2, 0, 5, 45*us)
		g.ping(3, 0, 10*us, 4, 12*us)
		return g.finish(t, 600*us)
	}},
	{"interval0-long", goldenTrace{0x2919c8c091f3844d, 0x164683d62e9c3daf, 0xd410eb8c97453e15, 0xad0ec7f75fb84781}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, true)
		g.ping(1, 3, 2*us, 8, 0)
		g.ping(2, 0, 0, 12, 50*us)     // 12 sends, 50 us apart: ~100 windows per gap
		g.ping(0, 1, 3*us+17, 3, 1601) // gap just over one window
		return g.finish(t, 900*us)
	}},
	{"at-tie", goldenTrace{0x7f4e8666b9c0e184, 0x2122dfc05ec22211, 0x943c04053500af61, 0x25a4c3f72a605be5}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, true)
		n0, n1 := g.nodes[0], g.nodes[1]
		n1.HandleUDP(9, func(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte) {
			g.record(0x75d9, uint64(now), uint64(src), uint64(srcPort), uint64(len(payload)), uint64(payload[0]))
		})
		const start, interval = 1000, 20 * us
		// Registered before the ping: fires before send 0 at the same cycle.
		n0.At(start, func(now clock.Cycles) {
			g.record(0xa7, uint64(now))
			n0.SendUDP(now, n1.IP(), 9, 4000, []byte{1, 2, 3})
		})
		g.ping(0, 1, start, 4, interval)
		// Registered after the ping: fires after send 1 at the same cycle.
		n0.At(start+interval, func(now clock.Cycles) {
			g.record(0xa8, uint64(now))
			n0.SendUDP(now, n1.IP(), 9, 4001, []byte{4})
			// Armed from inside an event, already past due: both run at
			// the current processing point.
			n0.At(now-5*us, func(now clock.Cycles) { g.record(0xa9, uint64(now)) })
			g.ping(0, 2, now-3*us, 2, 0)
		})
		return g.finish(t, 400*us)
	}},
	{"udp-echo", goldenTrace{0x354518626d2f7661, 0x806267fbfdc78509, 0x16c359bc60535853, 0xeb8351b691c53e6d}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, false)
		srv, cli := g.nodes[2], g.nodes[3]
		th := srv.NewThread(-1)
		srv.HandleUDP(7, func(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte) {
			msg := append([]byte("echo:"), payload...)
			th.Submit(now, Job{Cost: 2 * us, Fn: func(done clock.Cycles) {
				srv.SendUDPAccounted(done, src, srcPort, 7, msg)
			}})
		})
		cli.HandleUDP(9, func(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte) {
			g.record(0xec, uint64(now), uint64(src), uint64(srcPort))
			g.log.Write(payload)
		})
		for i := 0; i < 3; i++ {
			p := []byte{byte('a' + i)}
			cli.At(clock.Cycles(i)*5*us, func(now clock.Cycles) { cli.SendUDP(now, srv.IP(), 7, 9, p) })
		}
		// Raw stream through the same switch: frames nobody parses as IP.
		g.nodes[0].StartRawStream(0, g.nodes[1].MAC(), 200, 20, 100*us)
		return g.finish(t, 400*us)
	}},
	{"corrupt-rx", goldenTrace{0xc0f7f76e5718460c, 0x4b7f26028c46b6fc, 0x8f09218b79b4a2fc, 0xc6680dd04d689327}, func(t *testing.T) goldenTrace {
		g := newGoldenRack(t, false)
		// Deterministic bit flips and lost Last marks on received flits
		// drive every parser through its truncated and malformed cases.
		mangle := func(idx int, start clock.Cycles, in *token.Batch) {
			in.Mutate(func(offset int, tok token.Token) token.Token {
				x := (uint64(start) + uint64(offset)) * 0x9e3779b97f4a7c15 >> 40
				switch {
				case x%37 == 0:
					tok.Data ^= 1 << (x % 64)
				case x%97 == 0:
					tok.Last = !tok.Last
				}
				return tok
			})
		}
		for _, tp := range g.taps {
			tp.mangle = mangle
		}
		g.nodes[2].HandleUDP(7, func(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte) {
			g.record(0xc7, uint64(now), uint64(src), uint64(srcPort), uint64(len(payload)))
		})
		for i := 0; i < 4; i++ {
			g.ping(i, (i+1)%4, clock.Cycles(i)*us, 10, 9*us)
			g.nodes[i].At(clock.Cycles(i)*7*us, func(now clock.Cycles) {
				g.nodes[i].SendUDP(now, g.nodes[2].IP(), 7, 9, make([]byte, 40+i))
			})
		}
		return g.finish(t, 500*us)
	}},
}

// TestNodeGoldenTraces pins the kernel's observable behaviour to values
// recorded before the event queue, pinger and frame paths were rebuilt
// without closures or per-frame allocation: a pure speed change must not
// move a single token, result, counter or checkpoint byte.
func TestNodeGoldenTraces(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.run(t)
			if got != sc.want {
				t.Errorf("trace = goldenTrace{%#x, %#x, %#x, %#x}, want %#x",
					got.tokens, got.log, got.stats, got.save, sc.want)
			}
		})
	}
}
