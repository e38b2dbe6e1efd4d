// Package switchmodel implements FireSim's software switch models.
//
// Switches in the target design are modeled in software (C++ in the paper,
// Go here) processing network flits cycle-by-cycle. The algorithm follows
// Section III-B1 exactly:
//
//   - At ingress, simulation tokens containing valid data are buffered into
//     full packets, timestamped with the arrival cycle of their last token
//     plus a configurable minimum switching latency.
//   - A global switching step pushes all packets that completed during the
//     round through a priority queue sorted on timestamp, and drains the
//     queue into output-port buffers chosen by a static MAC address table
//     (datacenter topologies are relatively fixed). Broadcast packets are
//     duplicated as necessary.
//   - Per output port, packets are "released" onto the link in token form
//     when their release timestamp is less than or equal to global
//     simulation time and the output token buffer has space. Because the
//     output token buffer is of fixed size each iteration (one link
//     latency's worth of tokens), congestion is modeled automatically by
//     packets not being releasable. Buffer sizing and congestion drops are
//     modeled by bounding the delay between a packet's release timestamp
//     and global time, and by bounding output buffer occupancy in bytes.
//
// The switching algorithm and the assumption of Ethernet as the link layer
// are not fundamental: a new switch design replaces MACTableRouter, the
// one routing step (Route) the datapath calls.
//
// At datacenter scale (the paper's 1024-node tree has ~1,100 switch ports)
// the switch model is the scale-out hot path, so the steady-state round is
// allocation-free: Packet structs and their flit slabs live in a per-switch
// free list (recycled when the last reference drops at egress or on drop),
// the pending queue is the shared non-boxing 4-ary min-heap (minheap),
// broadcast fan-out shares one refcounted packet across egress queues
// instead of copying it per port, and egress FIFOs are head-index rings
// whose backing arrays are reused forever. A fully quiescent round (no
// ingress tokens, nothing queued, nothing in flight) short-circuits to an
// arithmetic cycle advance: O(ports), not O(ports×n).
package switchmodel

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/minheap"
	"repro/internal/token"
)

// Config parameterises a switch. Port bandwidth, link latency, buffering
// and switching latency are all runtime-configurable (no FPGA rebuild), as
// the paper emphasises.
type Config struct {
	// Name identifies the switch in diagnostics and stats.
	Name string
	// Ports is the number of full-duplex ports.
	Ports int
	// SwitchingLatency is the minimum port-to-port latency added to every
	// packet's timestamp at ingress. The paper's experiments use 10 cycles.
	SwitchingLatency clock.Cycles
	// OutputBufferBytes bounds each output port's packet buffer; packets
	// that would overflow it are dropped (at full-packet granularity).
	OutputBufferBytes int
	// MaxReleaseDelay bounds how stale a packet may become (global time
	// minus release timestamp) before it is dropped, modeling drop due to
	// congestion. Zero disables staleness drops.
	MaxReleaseDelay clock.Cycles
}

// DefaultSwitchingLatency is the paper's fixed port-to-port latency.
const DefaultSwitchingLatency clock.Cycles = 10

// DefaultOutputBufferBytes is a generous default output buffer (512 KiB),
// comparable to per-port packet memory in datacenter ToR switches.
const DefaultOutputBufferBytes = 512 << 10

// Packet is a fully-assembled packet inside the switch.
type Packet struct {
	// Flits is the packet's link-level data.
	Flits []uint64
	// InPort is the ingress port.
	InPort int
	// Release is the earliest global cycle at which the packet may be
	// released to an output port (last-flit arrival + switching latency).
	Release clock.Cycles
	// refs counts egress queues (and in-flight transmissions) still holding
	// the packet; broadcast fan-out shares one packet across ports instead
	// of copying it. Owned by the ticking goroutine — never atomic.
	refs int32
}

// Dst returns the destination MAC parsed from the first flit.
func (p *Packet) Dst() ethernet.MAC { return ethernet.DstFromFirstFlit(p.Flits[0]) }

// MACTableRouter routes by a static MAC address table populated by the
// simulation manager, flooding broadcast and unknown-destination packets to
// every port except the ingress port.
type MACTableRouter struct {
	table map[ethernet.MAC]int
	// unicast is the reusable single-port result slab: the known-MAC fast
	// path returns unicast[:1] instead of allocating a fresh slice per
	// packet (see Route's aliasing contract).
	unicast [1]int
	// flood caches, per ingress port, the flood list "every port except
	// the ingress port". Built lazily for the switch's port count and
	// invalidated on Set, so broadcast/unknown floods allocate only once
	// per (table generation, port count) instead of once per packet.
	flood [][]int
}

// NewMACTableRouter returns an empty table router.
func NewMACTableRouter() *MACTableRouter {
	return &MACTableRouter{table: make(map[ethernet.MAC]int)}
}

// Set maps a MAC address to an output port.
func (r *MACTableRouter) Set(mac ethernet.MAC, port int) {
	r.table[mac] = port
	r.flood = nil
}

// Route returns the output ports for the packet; no ports drops it. The
// returned slice is only valid until the next Route or Set call and must
// not be retained or mutated: it is a shared scratch or cached slice.
func (r *MACTableRouter) Route(sw *Switch, pkt *Packet) []int {
	dst := pkt.Dst()
	if dst != ethernet.Broadcast {
		if port, ok := r.table[dst]; ok {
			if port == pkt.InPort {
				return nil // never reflect a packet back out its ingress port
			}
			r.unicast[0] = port
			return r.unicast[:1]
		}
	}
	// Broadcast / unknown destination: flood.
	if len(r.flood) != sw.cfg.Ports {
		r.flood = make([][]int, sw.cfg.Ports)
		for ip := range r.flood {
			ports := make([]int, 0, sw.cfg.Ports-1)
			for p := 0; p < sw.cfg.Ports; p++ {
				if p != ip {
					ports = append(ports, p)
				}
			}
			r.flood[ip] = ports
		}
	}
	return r.flood[pkt.InPort]
}

// Stats aggregates switch activity counters.
type Stats struct {
	PacketsIn       uint64
	PacketsOut      uint64
	FlitsIn         uint64
	FlitsOut        uint64
	DropsBufFull    uint64
	DropsStale      uint64
	DropsUnroutable uint64
	BytesSwitched   uint64
	// StallCycles counts port-cycles on which an installed stall hook
	// (fault injection) suppressed egress.
	StallCycles uint64
}

// pktRing is a FIFO of packets over a reusable circular buffer. The
// append-and-reslice queue it replaces leaked its backing array's head on
// every dequeue (o.queue = o.queue[1:] strands the popped cell forever, the
// same defect PR 3 fixed in the fame channel rings); the ring reuses cells
// in place and grows only when genuinely full.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (q *pktRing) len() int { return q.n }

func (q *pktRing) push(p *Packet) {
	if q.n == len(q.buf) {
		grown := make([]*Packet, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf = grown
		q.head = 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *pktRing) front() *Packet { return q.buf[q.head] }

func (q *pktRing) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

// at returns the i-th queued packet in FIFO order (0 = front), for
// snapshotting; i must be < len().
func (q *pktRing) at(i int) *Packet {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

// outPort is the egress state of one port.
type outPort struct {
	queue       pktRing // FIFO, already routed, bounded by bytes
	queuedBytes int
	// tx is the packet currently being transmitted, flit index next to go.
	tx     *Packet
	txFlit int
}

// inPort is the ingress state of one port: partial packet assembly into a
// pooled packet (nil when no flits are buffered).
type inPort struct {
	cur *Packet
}

// Switch is a software switch model implementing fame.Endpoint.
type Switch struct {
	cfg    Config
	router *MACTableRouter
	cycle  clock.Cycles

	in  []inPort
	out []outPort
	// queue holds assembled packets keyed by (Release, InPort) until the
	// round's switching step routes them. A port completes at most one
	// packet per cycle, so the key is a total order, and the step drains
	// the queue every round: it is empty at every window boundary.
	queue minheap.Heap[*Packet]

	// free is the packet pool. Packets (and their flit slabs, kept at
	// capacity) are recycled here when their last reference drops — egress
	// of the final flit, a drop, or an unroutable verdict — and reused at
	// ingress, so steady-state rounds allocate nothing.
	free []*Packet

	// stats is owned by the ticking goroutine (the runner's worker pool
	// may tick this switch on any of its worker goroutines); Stats copies
	// it between runs.
	stats Stats

	// probe, when non-nil, is called once per released flit with the
	// absolute cycle, for bandwidth-over-time measurements (Figure 6
	// samples aggregate bandwidth at the root switch).
	probe func(cycle clock.Cycles, port int)

	// stall, when non-nil, reports whether an output port is prevented
	// from releasing a flit at the given cycle (fault injection: a stalled
	// port backs traffic up into its output buffer, so sustained stalls
	// surface as DropsBufFull/DropsStale exactly like real congestion).
	stall func(port int, cycle clock.Cycles) bool
}

// New builds a switch from cfg, applying defaults for zero values.
func New(cfg Config) *Switch {
	if cfg.Ports <= 0 {
		panic(fmt.Sprintf("switchmodel: switch %q needs at least one port", cfg.Name))
	}
	if cfg.SwitchingLatency == 0 {
		cfg.SwitchingLatency = DefaultSwitchingLatency
	}
	if cfg.OutputBufferBytes == 0 {
		cfg.OutputBufferBytes = DefaultOutputBufferBytes
	}
	return &Switch{
		cfg:    cfg,
		router: NewMACTableRouter(),
		in:     make([]inPort, cfg.Ports),
		out:    make([]outPort, cfg.Ports),
	}
}

// newPacket takes a packet from the pool (flit slab emptied but at
// capacity) or allocates one on first use.
func (s *Switch) newPacket() *Packet {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return p
	}
	return &Packet{}
}

// recycle returns a packet to the pool, keeping its flit slab's capacity.
func (s *Switch) recycle(p *Packet) {
	p.Flits = p.Flits[:0]
	p.refs = 0
	s.free = append(s.free, p)
}

// unref drops one egress reference and recycles the packet when the last
// holder (queue slot, in-flight tx) lets go.
func (s *Switch) unref(p *Packet) {
	p.refs--
	if p.refs <= 0 {
		s.recycle(p)
	}
}

// Name implements fame.Endpoint.
func (s *Switch) Name() string { return s.cfg.Name }

// NumPorts implements fame.Endpoint.
func (s *Switch) NumPorts() int { return s.cfg.Ports }

// MACTable returns the switch's routing table.
func (s *Switch) MACTable() *MACTableRouter { return s.router }

// Stats returns a copy of the switch counters as of the most recently
// completed TickBatch. Read it between runs: during a RunParallel the
// switch is ticked on a worker goroutine and the copy would race with it.
func (s *Switch) Stats() Stats { return s.stats }

// SetProbe installs a per-released-flit callback for bandwidth
// measurement.
func (s *Switch) SetProbe(fn func(cycle clock.Cycles, port int)) { s.probe = fn }

// SetStall installs (or, with nil, removes) a port-stall hook for fault
// injection. While fn(port, cycle) reports true the port releases nothing;
// the hook must be a pure function of (port, cycle) to preserve
// determinism.
func (s *Switch) SetStall(fn func(port int, cycle clock.Cycles) bool) { s.stall = fn }

// TickBatch implements fame.Endpoint: one full switching round over n
// target cycles.
func (s *Switch) TickBatch(n int, in, out []*token.Batch) {
	// Idle early-out: with no ingress tokens and nothing queued or in
	// flight at egress, the round is a pure cycle advance — partial
	// ingress assemblies can't progress without new tokens, and no stat
	// moves. Quiescent aggregation/root switches pay O(ports), not
	// O(ports×n). A stall hook disables the shortcut: stalled port-cycles
	// are counted (and checkpointed) even on otherwise idle ports.
	if s.stall == nil {
		idle := true
		for p := 0; p < s.cfg.Ports; p++ {
			o := &s.out[p]
			if !in[p].IsEmpty() || o.tx != nil || o.queue.len() != 0 {
				idle = false
				break
			}
		}
		if idle {
			s.cycle += clock.Cycles(n)
			return
		}
	}

	// Phase 1: ingress. Buffer valid tokens into packets, one copy per
	// run; timestamp each completed packet with its last token's arrival
	// cycle plus the minimum switching latency, and push it into the
	// global queue.
	for p := 0; p < s.cfg.Ports; p++ {
		ip := &s.in[p]
		b := in[p]
		s.stats.FlitsIn += uint64(len(b.Data))
		pos := 0
		for _, r := range b.Runs {
			if ip.cur == nil {
				ip.cur = s.newPacket()
			}
			end := pos + int(r.Len)
			ip.cur.Flits = append(ip.cur.Flits, b.Data[pos:end]...)
			pos = end
			if r.Last {
				pkt := ip.cur
				ip.cur = nil
				pkt.InPort = p
				pkt.Release = s.cycle + clock.Cycles(r.Off+r.Len-1) + s.cfg.SwitchingLatency
				s.stats.PacketsIn++
				s.queue.Push(pkt.Release, uint64(p), pkt)
			}
		}
	}

	// Phase 2: global switching step. Drain the priority queue in
	// timestamp order into output port buffers via the router; broadcast
	// fan-out shares the packet across ports under a refcount. Packets
	// that would overflow an output buffer are dropped at full-packet
	// granularity.
	for s.queue.Len() > 0 {
		pkt := s.queue.Pop().Val
		ports := s.router.Route(s, pkt)
		if len(ports) == 0 {
			s.stats.DropsUnroutable++
			s.recycle(pkt)
			continue
		}
		bytes := len(pkt.Flits) * ethernet.FlitSize
		for _, op := range ports {
			o := &s.out[op]
			if o.queuedBytes+bytes > s.cfg.OutputBufferBytes {
				s.stats.DropsBufFull++
				continue
			}
			pkt.refs++
			o.queue.push(pkt)
			o.queuedBytes += bytes
		}
		if pkt.refs == 0 {
			// Every routed port overflowed: nobody holds the packet.
			s.recycle(pkt)
		}
	}

	// Phase 3: egress. Per port, release packets whose timestamp has been
	// reached, one flit per cycle, written a run of cycles at a time. The
	// output token buffer for the round is exactly n tokens, so a
	// congested port simply fails to release — which is the paper's
	// congestion model.
	for p := 0; p < s.cfg.Ports; p++ {
		s.releasePort(p, n, out[p])
	}
	s.cycle += clock.Cycles(n)
}

func (s *Switch) releasePort(p int, n int, out *token.Batch) {
	o := &s.out[p]
	for i := 0; i < n; i++ {
		now := s.cycle + clock.Cycles(i)
		if s.stall != nil && s.stall(p, now) {
			s.stats.StallCycles++
			continue
		}
		if o.tx == nil {
			// Try to start a new packet this cycle.
			for o.queue.len() > 0 {
				head := o.queue.front()
				if head.Release > now {
					break
				}
				if s.cfg.MaxReleaseDelay > 0 && now-head.Release > s.cfg.MaxReleaseDelay {
					// Too stale: congestion drop.
					o.queue.pop()
					o.queuedBytes -= len(head.Flits) * ethernet.FlitSize
					s.stats.DropsStale++
					s.unref(head)
					continue
				}
				o.tx = head
				o.txFlit = 0
				o.queue.pop()
				break
			}
		}
		if o.tx == nil && s.stall != nil {
			continue // a stall hook is checked on every port-cycle
		}
		if o.tx == nil {
			// Idle: fast-forward to the next packet's release time (or
			// the end of the batch). Semantically identical to ticking
			// every empty cycle, but O(1) for idle ports.
			if o.queue.len() == 0 {
				return
			}
			next := o.queue.front().Release
			if next >= s.cycle+clock.Cycles(n) {
				return
			}
			if j := int(next - s.cycle); j > i {
				i = j - 1 // loop increment lands on the release cycle
			}
			continue
		}
		// Transmit a run: one flit per cycle from i until the packet or the
		// window ends, or until the first stalled cycle, which is then
		// counted here exactly as the top of the loop would count it.
		k := min(len(o.tx.Flits)-o.txFlit, n-i)
		stalled := false
		if s.stall != nil {
			for j := 1; j < k; j++ {
				if s.stall(p, now+clock.Cycles(j)) {
					k, stalled = j, true
					break
				}
			}
		}
		o.txFlit += k
		last := o.txFlit == len(o.tx.Flits)
		out.PutRun(i, o.tx.Flits[o.txFlit-k:o.txFlit], last)
		s.stats.FlitsOut += uint64(k)
		s.stats.BytesSwitched += uint64(k) * ethernet.FlitSize
		if s.probe != nil {
			for j := range k {
				s.probe(now+clock.Cycles(j), p)
			}
		}
		i += k - 1
		if stalled {
			i++
			s.stats.StallCycles++
		}
		if last {
			o.queuedBytes -= len(o.tx.Flits) * ethernet.FlitSize
			s.stats.PacketsOut++
			s.unref(o.tx)
			o.tx = nil
		}
	}
}
