package switchmodel

// This file carries a reference implementation of the switch datapath as it
// existed before the zero-allocation rewrite: container/heap with
// interface{} boxing, a fresh Packet and flit slice per ingress packet, a
// fresh []int per routing decision, per-port struct copies for broadcast,
// and append-and-reslice egress queues. It is kept verbatim (module the
// type renames) as the semantic oracle: TestSwitchStreamEquivalenceFuzz
// drives both implementations with identical random token streams —
// broadcasts, overflows, staleness, stalls, packets spanning rounds — and
// demands bit-identical output tokens and stats every round. The paired
// benchmarks measure the rewrite's effect on dense and idle rounds.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/token"
)

type refPacket struct {
	flits   []uint64
	inPort  int
	release clock.Cycles
	seq     uint64
}

type refPending []*refPacket

func (h refPending) Len() int { return len(h) }
func (h refPending) Less(i, j int) bool {
	if h[i].release != h[j].release {
		return h[i].release < h[j].release
	}
	return h[i].seq < h[j].seq
}
func (h refPending) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refPending) Push(x interface{}) { *h = append(*h, x.(*refPacket)) }
func (h *refPending) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

type refOutPort struct {
	queue       []*refPacket
	queuedBytes int
	tx          *refPacket
	txFlit      int
}

type refSwitch struct {
	cfg   Config
	table map[ethernet.MAC]int
	cycle clock.Cycles
	seq   uint64
	in    [][]uint64
	out   []refOutPort
	queue refPending
	stats Stats
	stall func(port int, cycle clock.Cycles) bool
}

func newRefSwitch(cfg Config) *refSwitch {
	if cfg.SwitchingLatency == 0 {
		cfg.SwitchingLatency = DefaultSwitchingLatency
	}
	if cfg.OutputBufferBytes == 0 {
		cfg.OutputBufferBytes = DefaultOutputBufferBytes
	}
	return &refSwitch{
		cfg:   cfg,
		table: make(map[ethernet.MAC]int),
		in:    make([][]uint64, cfg.Ports),
		out:   make([]refOutPort, cfg.Ports),
	}
}

func (rs *refSwitch) route(pkt *refPacket) []int {
	dst := ethernet.DstFromFirstFlit(pkt.flits[0])
	if dst != ethernet.Broadcast {
		if port, ok := rs.table[dst]; ok {
			if port == pkt.inPort {
				return nil
			}
			return []int{port}
		}
	}
	ports := make([]int, 0, rs.cfg.Ports-1)
	for p := 0; p < rs.cfg.Ports; p++ {
		if p != pkt.inPort {
			ports = append(ports, p)
		}
	}
	return ports
}

func (rs *refSwitch) tickBatch(n int, in, out []*token.Batch) {
	for p := 0; p < rs.cfg.Ports; p++ {
		in[p].Each(func(offset int, tok token.Token) {
			rs.in[p] = append(rs.in[p], tok.Data)
			rs.stats.FlitsIn++
			if tok.Last {
				pkt := &refPacket{
					flits:   rs.in[p],
					inPort:  p,
					release: rs.cycle + clock.Cycles(offset) + rs.cfg.SwitchingLatency,
					seq:     rs.seq,
				}
				rs.seq++
				rs.in[p] = nil
				rs.stats.PacketsIn++
				heap.Push(&rs.queue, pkt)
			}
		})
	}
	for rs.queue.Len() > 0 {
		pkt := heap.Pop(&rs.queue).(*refPacket)
		ports := rs.route(pkt)
		if len(ports) == 0 {
			rs.stats.DropsUnroutable++
			continue
		}
		for _, op := range ports {
			o := &rs.out[op]
			bytes := len(pkt.flits) * ethernet.FlitSize
			if o.queuedBytes+bytes > rs.cfg.OutputBufferBytes {
				rs.stats.DropsBufFull++
				continue
			}
			dup := pkt
			if len(ports) > 1 {
				c := *pkt
				dup = &c
			}
			o.queue = append(o.queue, dup)
			o.queuedBytes += bytes
		}
	}
	for p := 0; p < rs.cfg.Ports; p++ {
		rs.releasePort(p, n, out[p])
	}
	rs.cycle += clock.Cycles(n)
}

func (rs *refSwitch) releasePort(p int, n int, out *token.Batch) {
	o := &rs.out[p]
	for i := 0; i < n; i++ {
		now := rs.cycle + clock.Cycles(i)
		if rs.stall != nil && rs.stall(p, now) {
			rs.stats.StallCycles++
			continue
		}
		if o.tx == nil {
			for len(o.queue) > 0 {
				head := o.queue[0]
				if head.release > now {
					break
				}
				if rs.cfg.MaxReleaseDelay > 0 && now-head.release > rs.cfg.MaxReleaseDelay {
					o.queue = o.queue[1:]
					o.queuedBytes -= len(head.flits) * ethernet.FlitSize
					rs.stats.DropsStale++
					continue
				}
				o.tx = head
				o.txFlit = 0
				o.queue = o.queue[1:]
				break
			}
		}
		if o.tx == nil && rs.stall != nil {
			continue
		}
		if o.tx == nil {
			if len(o.queue) == 0 {
				return
			}
			next := o.queue[0].release
			if next >= rs.cycle+clock.Cycles(n) {
				return
			}
			if j := int(next - rs.cycle); j > i {
				i = j - 1
			}
			continue
		}
		flit := o.tx.flits[o.txFlit]
		last := o.txFlit == len(o.tx.flits)-1
		out.Put(i, token.Token{Data: flit, Valid: true, Last: last})
		rs.stats.FlitsOut++
		rs.stats.BytesSwitched += ethernet.FlitSize
		o.txFlit++
		if last {
			o.queuedBytes -= len(o.tx.flits) * ethernet.FlitSize
			o.tx = nil
			rs.stats.PacketsOut++
		}
	}
}

// fuzzFlitStream generates, per port, an ordered stream of (flit, last)
// pairs — whole frames destined to known MACs, unknown MACs, the broadcast
// address, or the sender's own port (unroutable reflection).
type fuzzFlit struct {
	data uint64
	last bool
}

func fuzzFrame(t *testing.T, rng *rand.Rand, ports int) []fuzzFlit {
	t.Helper()
	var dst ethernet.MAC
	switch rng.Intn(5) {
	case 0:
		dst = ethernet.Broadcast
	case 1:
		dst = ethernet.MAC(0xdead_0000) + ethernet.MAC(rng.Intn(4)) // unknown: floods
	default:
		dst = ethernet.MAC(0x0200_0000_0001) + ethernet.MAC(rng.Intn(ports)) // known
	}
	src := ethernet.MAC(0x0200_0000_1000) + ethernet.MAC(rng.Intn(ports))
	flits := mkFrameFlits(t, dst, src, rng.Intn(80))
	out := make([]fuzzFlit, len(flits))
	for i, f := range flits {
		out[i] = fuzzFlit{data: f, last: i == len(flits)-1}
	}
	return out
}

// TestSwitchStreamEquivalenceFuzz is the old-vs-new token-stream
// equivalence keystone: for many seeded random configurations and traffic
// patterns, the pooled/heap/ring datapath must emit exactly the token
// streams and stats of the pre-rewrite implementation, round by round.
func TestSwitchStreamEquivalenceFuzz(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed) * 7919))
			ports := 2 + rng.Intn(4)
			cfg := Config{
				Name:             "fuzz",
				Ports:            ports,
				SwitchingLatency: clock.Cycles(1 + rng.Intn(16)),
			}
			if rng.Intn(2) == 0 {
				cfg.OutputBufferBytes = 64 + rng.Intn(512) // small: force overflows
			}
			if rng.Intn(2) == 0 {
				cfg.MaxReleaseDelay = clock.Cycles(1 + rng.Intn(40))
			}
			sw := New(cfg)
			rs := newRefSwitch(cfg)
			for p := 0; p < ports; p++ {
				mac := ethernet.MAC(0x0200_0000_0001) + ethernet.MAC(p)
				sw.MACTable().Set(mac, p)
				rs.table[mac] = p
			}
			if rng.Intn(3) == 0 {
				k := clock.Cycles(2 + rng.Intn(30))
				stall := func(port int, cycle clock.Cycles) bool {
					return port == 0 && cycle%64 < k
				}
				sw.SetStall(stall)
				rs.stall = stall
			}

			// Per-port pending flit streams, refilled as they drain.
			streams := make([][]fuzzFlit, ports)
			rounds := 60
			for round := 0; round < rounds; round++ {
				n := []int{4, 8, 16, 32, 64}[rng.Intn(5)]
				inA := make([]*token.Batch, ports)
				inB := make([]*token.Batch, ports)
				outA := make([]*token.Batch, ports)
				outB := make([]*token.Batch, ports)
				for p := 0; p < ports; p++ {
					if len(streams[p]) < 8 && rng.Intn(3) > 0 {
						streams[p] = append(streams[p], fuzzFrame(t, rng, ports)...)
					}
					b := token.NewBatch(n)
					// Feed a random prefix of the port's stream at random
					// strictly-increasing offsets; leftovers span into the
					// next round, exercising partial assemblies.
					off := rng.Intn(4)
					took := 0
					for _, ff := range streams[p] {
						if off >= n || rng.Intn(8) == 0 {
							break
						}
						b.Put(off, token.Token{Data: ff.data, Valid: true, Last: ff.last})
						off += 1 + rng.Intn(3)
						took++
					}
					streams[p] = streams[p][took:]
					inA[p] = b
					inB[p] = &token.Batch{N: b.N, Runs: slices.Clone(b.Runs), Data: slices.Clone(b.Data)}
					outA[p] = token.NewBatch(n)
					outB[p] = token.NewBatch(n)
				}
				sw.TickBatch(n, inA, outA)
				rs.tickBatch(n, inB, outB)
				for p := 0; p < ports; p++ {
					a, b := outA[p], outB[p]
					if !slices.Equal(a.Runs, b.Runs) || !slices.Equal(a.Data, b.Data) {
						t.Fatalf("round %d port %d: runs %v data %x vs reference %v %x", round, p, a.Runs, a.Data, b.Runs, b.Data)
					}
				}
				if got, want := sw.Stats(), rs.stats; got != want {
					t.Fatalf("round %d: stats diverged:\n  got  %+v\n  want %+v", round, got, want)
				}
				if got, want := sw.Cycle(), rs.cycle; got != want {
					t.Fatalf("round %d: cycle %d vs reference %d", round, got, want)
				}
			}
		})
	}
}

// benchSwitchSetup builds a 4-port switch plus reusable dense-round inputs:
// three unicast flows and one broadcast per round, all draining within the
// round.
func benchDenseInputs(tb testing.TB, n int) (ins, outs []*token.Batch) {
	tb.Helper()
	ins = make([]*token.Batch, 4)
	outs = make([]*token.Batch, 4)
	for p := 0; p < 4; p++ {
		ins[p] = token.NewBatch(n)
		outs[p] = token.NewBatch(n)
	}
	put := func(p, off int, flits []uint64) {
		for i, f := range flits {
			ins[p].Put(off+i, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
		}
	}
	mac := func(p int) ethernet.MAC { return ethernet.MAC(0x0200_0000_0001) + ethernet.MAC(p) }
	mk := func(dst, src ethernet.MAC, payload int) []uint64 {
		f := &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeIPv4, Payload: make([]byte, payload)}
		flits, err := f.FrameFlits()
		if err != nil {
			tb.Fatal(err)
		}
		return flits
	}
	put(0, 0, mk(mac(2), mac(0), 40))
	put(1, 2, mk(mac(3), mac(1), 40))
	put(3, 1, mk(mac(1), mac(3), 24))
	put(2, 4, mk(ethernet.Broadcast, mac(2), 8))
	return ins, outs
}

func benchSwitchMACs(set func(ethernet.MAC, int)) {
	for p := 0; p < 4; p++ {
		set(ethernet.MAC(0x0200_0000_0001)+ethernet.MAC(p), p)
	}
}

func BenchmarkSwitchDenseRound(b *testing.B) {
	const n = 64
	sw := New(Config{Name: "bench", Ports: 4, SwitchingLatency: 10})
	benchSwitchMACs(sw.MACTable().Set)
	ins, outs := benchDenseInputs(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range outs {
			o.Reset(n)
		}
		sw.TickBatch(n, ins, outs)
	}
}

func BenchmarkSwitchIdleRound(b *testing.B) {
	const n = 64
	sw := New(Config{Name: "bench", Ports: 32, SwitchingLatency: 10})
	ins := make([]*token.Batch, 32)
	outs := make([]*token.Batch, 32)
	for p := range ins {
		ins[p] = token.NewBatch(n)
		outs[p] = token.NewBatch(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.TickBatch(n, ins, outs)
	}
}

func BenchmarkReferenceDenseRound(b *testing.B) {
	const n = 64
	rs := newRefSwitch(Config{Name: "bench", Ports: 4, SwitchingLatency: 10})
	benchSwitchMACs(func(m ethernet.MAC, p int) { rs.table[m] = p })
	ins, outs := benchDenseInputs(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range outs {
			o.Reset(n)
		}
		rs.tickBatch(n, ins, outs)
	}
}

func BenchmarkReferenceIdleRound(b *testing.B) {
	const n = 64
	rs := newRefSwitch(Config{Name: "bench", Ports: 32, SwitchingLatency: 10})
	ins := make([]*token.Batch, 32)
	outs := make([]*token.Batch, 32)
	for p := range ins {
		ins[p] = token.NewBatch(n)
		outs[p] = token.NewBatch(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.tickBatch(n, ins, outs)
	}
}
