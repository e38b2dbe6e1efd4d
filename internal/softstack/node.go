package softstack

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/minheap"
	"repro/internal/token"
)

// Config describes one modeled-OS node.
type Config struct {
	// Name identifies the node.
	Name string
	// MAC and IP are assigned by the simulation manager.
	MAC ethernet.MAC
	IP  ethernet.IP
	// Cores is the number of CPU cores (Table I: up to 4).
	Cores int
	// Freq is the target clock (default 3.2 GHz).
	Freq clock.Hz
	// Seed drives the node's deterministic scheduler randomness.
	Seed uint64
	// StaticARP, when non-nil, pre-populates the ARP table (the manager
	// does this for most experiments; the ping benchmark leaves it empty
	// to reproduce the first-sample ARP artifact).
	StaticARP map[ethernet.IP]ethernet.MAC
}

// txFrame is a frame queued for transmission.
type txFrame struct {
	flits   []uint64
	readyAt clock.Cycles
	flit    int
	// pooled marks flits taken from the node's free list, returned there
	// once the frame is sent. A generator's shared frame is never pooled.
	pooled bool
}

// generator produces paced raw frames for bandwidth experiments.
type generator struct {
	dst      ethernet.MAC
	flits    []uint64
	next     float64 // next frame emission cycle
	interval float64 // cycles between frame starts
	stopAt   clock.Cycles
}

// UDPHandler receives datagrams delivered by the kernel RX path.
type UDPHandler func(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte)

// Stats counts node network activity.
type Stats struct {
	FramesSent uint64
	FramesRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
	ARPLookups uint64
}

// PingResult is one echo round trip.
type PingResult struct {
	Seq int
	RTT clock.Cycles
}

// pinger is one Ping train. Only its next send is queued: send i fires at
// start+i*interval with event seq seq0+i, seqs Ping reserved up front.
type pinger struct {
	dst      ethernet.IP
	start    clock.Cycles
	count    int
	interval clock.Cycles
	seq0     uint64
	next     int // sends issued so far
	results  []PingResult
	// sentAt holds each wire sequence number's latest send cycle. Sends go
	// out in order, so wire seq w has been sent iff w < len(sentAt).
	sentAt []clock.Cycles
	done   func([]PingResult)
	// finished is set once all results are in; a pinger whose sends are
	// still queued stays registered until the last one fires.
	finished bool
}

// maxWireSeq is the number of distinct ICMP sequence numbers.
const maxWireSeq = 1 << 16

// Node is a modeled-OS server on the token network, implementing
// fame.Endpoint with a single network port.
type Node struct {
	cfg   Config
	clk   clock.Clock
	costs Costs

	cycle    clock.Cycles
	events   minheap.Heap[event]
	eventSeq uint64

	sched   *scheduler
	threads []*Thread

	// network state
	arp        map[ethernet.IP]ethernet.MAC
	arpWaiting map[ethernet.IP][]func(now clock.Cycles, mac ethernet.MAC)
	udp        map[uint16]UDPHandler
	rxFlits    []uint64
	rxBuf      []byte // the frame being parsed, reused

	// TX engine. txq[txHead:] is the queue; the consumed head is reclaimed
	// when the queue empties or the backing array fills.
	txq      []txFrame
	txHead   int
	txCursor clock.Cycles
	gen      *generator
	txBuf    []byte     // frame being encoded, reused
	flitPool [][]uint64 // free list of sent frames' flit slices

	pingers map[uint16]*pinger
	nextID  uint16

	// calls holds the closures and payloads of queued events; callFree
	// lists its vacant slots.
	calls    []callback
	callFree []int32

	// RemoteMemHandler, when set, receives TypeRemoteMem frames (the
	// disaggregated-memory protocol of Section VI) after IRQ latency. It
	// is a public field so package pfa can implement the memory blade
	// without softstack depending on it.
	RemoteMemHandler RemoteMemFn

	stats Stats
}

// NewNode builds a node from cfg.
func NewNode(cfg Config) *Node {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Freq == 0 {
		cfg.Freq = clock.DefaultTargetClock
	}
	n := &Node{
		cfg:        cfg,
		clk:        clock.New(cfg.Freq),
		costs:      DefaultCosts(cfg.Freq),
		arp:        make(map[ethernet.IP]ethernet.MAC),
		arpWaiting: make(map[ethernet.IP][]func(clock.Cycles, ethernet.MAC)),
		udp:        make(map[uint16]UDPHandler),
		pingers:    make(map[uint16]*pinger),
	}
	for ip, mac := range cfg.StaticARP {
		n.arp[ip] = mac
	}
	n.sched = newScheduler(n, cfg.Cores, cfg.Seed+1)
	return n
}

// Name implements fame.Endpoint.
func (n *Node) Name() string { return n.cfg.Name }

// NumPorts implements fame.Endpoint.
func (n *Node) NumPorts() int { return 1 }

// MAC returns the node's MAC address.
func (n *Node) MAC() ethernet.MAC { return n.cfg.MAC }

// IP returns the node's IP address.
func (n *Node) IP() ethernet.IP { return n.cfg.IP }

// Clock returns the node's clock for cycle/time conversion.
func (n *Node) Clock() clock.Clock { return n.clk }

// Costs returns the node's kernel cost model.
func (n *Node) Costs() Costs { return n.costs }

// Stats returns a snapshot of the counters.
func (n *Node) Stats() Stats { return n.stats }

// LearnARP inserts a static ARP entry.
func (n *Node) LearnARP(ip ethernet.IP, mac ethernet.MAC) { n.arp[ip] = mac }

// --- fame.Endpoint ---

// TickBatch implements fame.Endpoint. It is event-driven: only occupied
// input tokens, due events, and pending transmissions cost host time, so
// an idle node advances a batch in O(1).
func (n *Node) TickBatch(nCycles int, in, out []*token.Batch) {
	start := n.cycle
	end := start + clock.Cycles(nCycles)

	// 1. Ingress: reassemble frames from occupied tokens, one copy per
	// run.
	pos := 0
	for _, r := range in[0].Runs {
		next := pos + int(r.Len)
		n.rxFlits = append(n.rxFlits, in[0].Data[pos:next]...)
		pos = next
		if r.Last {
			arrival := start + clock.Cycles(r.Off+r.Len-1)
			n.stats.FramesRecv++
			n.stats.BytesRecv += uint64(len(n.rxFlits) * ethernet.FlitSize)
			n.rxBuf = ethernet.AppendFlitBytes(n.rxBuf[:0], n.rxFlits)
			n.rxFlits = n.rxFlits[:0]
			n.handleFrame(arrival, n.rxBuf)
		}
	}

	// 2. Drain due events (events may schedule more events within the
	// window; the heap keeps everything in (cycle, seq) order).
	for n.events.Len() > 0 && n.events.Min().At < end {
		ev := n.events.Pop()
		n.fire(max(ev.At, start), &ev.Val)
	}

	// 3. Egress: emit queued frames, one flit per cycle, a run at a time.
	n.emitTX(start, end, out[0])
	n.cycle = end
}

// emitTX drains the TX queue into the output batch for cycles [start,end).
//
// The persisted txCursor advances only when a flit is actually emitted,
// so it always reads "one past the last emitted flit" — a pure function
// of the node's emission history. The window-local clamps below (snap a
// stale cursor up to start, wait for the head frame's readyAt) are
// re-derived every window, so folding them into the persisted value adds
// no information; it would, however, make saved state depend on the
// runner's batch quantum: a partition stepping in half-link windows
// would checkpoint a different cursor than the whole cluster stepping in
// full-link windows despite emitting identical tokens, breaking
// cross-process bit-identity checks.
func (n *Node) emitTX(start, end clock.Cycles, out *token.Batch) {
	cursor := n.txCursor
	if cursor < start {
		cursor = start
	}
	for {
		if n.txHead == len(n.txq) && !n.refillFromGenerator(end) {
			break
		}
		f := &n.txq[n.txHead]
		if f.readyAt > cursor {
			cursor = f.readyAt
		}
		if cursor >= end {
			break
		}
		// The frame's next segment: as many flits as the window has room
		// for, on consecutive cycles.
		k := min(len(f.flits)-f.flit, int(end-cursor))
		out.PutRun(int(cursor-start), f.flits[f.flit:f.flit+k], f.flit+k == len(f.flits))
		f.flit += k
		cursor += clock.Cycles(k)
		n.txCursor = cursor
		if f.flit == len(f.flits) {
			n.stats.FramesSent++
			n.stats.BytesSent += uint64(len(f.flits) * ethernet.FlitSize)
			if f.pooled {
				n.flitPool = append(n.flitPool, f.flits)
			}
			n.txq[n.txHead] = txFrame{}
			n.txHead++
			if n.txHead == len(n.txq) {
				n.txq, n.txHead = n.txq[:0], 0
			}
		}
	}
}

// pushTX appends a frame to the TX queue, reclaiming the consumed head
// before the backing array would have to grow.
func (n *Node) pushTX(f txFrame) {
	if n.txHead > 0 && len(n.txq) == cap(n.txq) {
		k := copy(n.txq, n.txq[n.txHead:])
		clear(n.txq[k:])
		n.txq, n.txHead = n.txq[:k], 0
	}
	n.txq = append(n.txq, f)
}

// refillFromGenerator produces the next paced raw frame if a stream is
// active and due before end.
func (n *Node) refillFromGenerator(end clock.Cycles) bool {
	g := n.gen
	if g == nil {
		return false
	}
	next := clock.Cycles(g.next)
	if g.stopAt > 0 && next >= g.stopAt {
		n.gen = nil
		return false
	}
	if next >= end {
		return false
	}
	n.pushTX(txFrame{flits: g.flits, readyAt: next})
	g.next += g.interval
	return true
}

// frame starts encoding a frame with a payload of plen bytes in the
// node's scratch buffer: it returns the header, and the caller appends
// exactly plen payload bytes and passes the result to queueFrame.
func (n *Node) frame(dst ethernet.MAC, typ ethernet.EtherType, plen int) []byte {
	b, err := ethernet.AppendHeader(n.txBuf[:0], dst, n.cfg.MAC, typ, plen)
	if err != nil {
		panic(fmt.Sprintf("softstack: %v", err))
	}
	return b
}

// queueFrame queues an encoded frame for transmission no earlier than
// ready, packing it into flits from the free list.
func (n *Node) queueFrame(ready clock.Cycles, b []byte) {
	n.txBuf = b
	var flits []uint64
	if k := len(n.flitPool); k > 0 {
		flits = n.flitPool[k-1][:0]
		n.flitPool[k-1] = nil
		n.flitPool = n.flitPool[:k-1]
	}
	n.pushTX(txFrame{flits: ethernet.AppendFlits(flits, b), readyAt: ready, pooled: true})
}

// ipv4 starts encoding an IPv4 frame like frame does: the caller appends
// the transport header and payload, plen bytes in all.
func (n *Node) ipv4(dstMAC ethernet.MAC, dst ethernet.IP, proto ethernet.Protocol, plen int) []byte {
	b := n.frame(dstMAC, ethernet.TypeIPv4, ethernet.IPv4HeaderLen+plen)
	return ethernet.AppendIPv4Header(b, n.cfg.IP, dst, proto, 64, plen)
}

// sendICMP queues an ICMP message to dst at ready.
func (n *Node) sendICMP(ready clock.Cycles, dstMAC ethernet.MAC, dst ethernet.IP, msg ethernet.ICMP) {
	b := n.ipv4(dstMAC, dst, ethernet.ProtoICMP, ethernet.ICMPLen)
	n.queueFrame(ready, msg.Append(b))
}

// sendARP queues an ARP message to dstMAC at ready.
func (n *Node) sendARP(ready clock.Cycles, dstMAC ethernet.MAC, msg ethernet.ARP) {
	b := n.frame(dstMAC, ethernet.TypeARP, ethernet.ARPLen)
	n.queueFrame(ready, msg.Append(b))
}

// --- kernel events ---

// evKind selects what a queued event does when it fires. Kernel work is
// typed: its payload is plain data in the event record, and fire
// dispatches on the kind. Only an application callback (At, Job.Fn) or a
// received payload that must outlive its frame is parked in Node.calls.
type evKind uint8

const (
	evCall        evKind = iota // run calls[ref].fn (At)
	evJobDone                   // the job on core id of thread arg completes; calls[ref].fn is Job.Fn
	evPingSend                  // pinger id sends its next echo request
	evEchoRequest               // answer echo request id/seq, SentCycle arg, from ip at mac
	evEchoReply                 // credit echo reply id/seq to its pinger
	evARP                       // ARP op id from sender ip at mac, target IP arg
	evUDP                       // deliver calls[ref].data from ip, source port id, to calls[ref].udp
	evRemoteMem                 // deliver calls[ref].data from mac to RemoteMemHandler
)

// event is one unit of scheduled node work, a pointer-free record whose
// kind says which fields are meaningful. The queue orders events by
// (cycle, seq), seq taken from Node.eventSeq when the event is scheduled.
type event struct {
	kind evKind
	id   uint16
	seq  uint16
	ref  int32 // index into Node.calls
	ip   ethernet.IP
	mac  ethernet.MAC
	arg  uint64
}

// callback is the part of an event that is not plain data: a closure, or
// a received payload with its socket handler.
type callback struct {
	fn   func(now clock.Cycles)
	udp  UDPHandler
	data []byte
}

// park stores c in the callback table and returns its index.
func (n *Node) park(c callback) int32 {
	if k := len(n.callFree); k > 0 {
		i := n.callFree[k-1]
		n.callFree = n.callFree[:k-1]
		n.calls[i] = c
		return i
	}
	n.calls = append(n.calls, c)
	return int32(len(n.calls) - 1)
}

// unpark removes and returns callback i.
func (n *Node) unpark(i int32) callback {
	c := n.calls[i]
	n.calls[i] = callback{}
	n.callFree = append(n.callFree, i)
	return c
}

// schedule queues ev at the given absolute cycle. Events scheduled for
// the past run at the current processing point (monotonicity is
// preserved by the drain loop).
func (n *Node) schedule(cycle clock.Cycles, ev event) {
	n.events.Push(cycle, n.eventSeq, ev)
	n.eventSeq++
}

// At schedules an application callback at an absolute cycle.
func (n *Node) At(cycle clock.Cycles, fn func(now clock.Cycles)) {
	n.schedule(cycle, event{kind: evCall, ref: n.park(callback{fn: fn})})
}

// fire runs one due event at now.
func (n *Node) fire(now clock.Cycles, ev *event) {
	switch ev.kind {
	case evCall:
		n.unpark(ev.ref).fn(now)
	case evJobDone:
		n.sched.complete(now, int(ev.id), n.threads[ev.arg], n.unpark(ev.ref).fn)
	case evPingSend:
		n.pingSend(now, ev.id)
	case evEchoRequest:
		// Kernel echoes in interrupt context: RX cost then TX cost.
		n.arp[ev.ip] = ev.mac // gratuitous learn, like Linux
		n.sendICMP(now+n.costs.KernelTX, ev.mac, ev.ip, ethernet.ICMP{
			Type: ethernet.ICMPEchoReply, ID: ev.id, Seq: ev.seq, SentCycle: ev.arg,
		})
	case evEchoReply:
		n.pingReply(now, ev.id, ev.seq)
	case evARP:
		n.arpReceived(now, ethernet.ARPOp(ev.id), ev.mac, ev.ip, ethernet.IP(ev.arg))
	case evUDP:
		c := n.unpark(ev.ref)
		c.udp(now, ev.ip, ev.id, c.data)
	case evRemoteMem:
		n.RemoteMemHandler(now, ev.mac, n.unpark(ev.ref).data)
	}
}

// --- protocol handling (kernel) ---

// handleFrame parses a received frame in place; buf is reused for the
// next frame, so any payload that outlives the call is copied.
func (n *Node) handleFrame(arrival clock.Cycles, buf []byte) {
	fr, err := ethernet.ParseFrame(buf)
	if err != nil {
		return // malformed frame: dropped silently like real hardware
	}
	if fr.Dst != n.cfg.MAC && fr.Dst != ethernet.Broadcast {
		return // not ours (flooded or misdelivered)
	}
	switch fr.Type {
	case ethernet.TypeARP:
		msg, err := ethernet.ParseARP(fr.Payload)
		if err != nil {
			return
		}
		// Kernel handles ARP after IRQ+RX cost.
		n.schedule(arrival+n.costs.IRQLatency+n.costs.KernelRX, event{
			kind: evARP, id: uint16(msg.Op), mac: msg.SenderMAC, ip: msg.SenderIP, arg: uint64(msg.TargetIP),
		})
	case ethernet.TypeIPv4:
		n.handleIPv4(arrival, fr.Src, fr.Payload)
	case ethernet.TypeRemoteMem:
		if n.RemoteMemHandler != nil {
			n.schedule(arrival+n.costs.IRQLatency, event{
				kind: evRemoteMem, mac: fr.Src, ref: n.park(callback{data: append([]byte(nil), fr.Payload...)}),
			})
		}
	}
}

// arpReceived runs the kernel's ARP handling: learn the sender, answer a
// request for this node's IP, or wake the sends waiting on a reply.
func (n *Node) arpReceived(now clock.Cycles, op ethernet.ARPOp, senderMAC ethernet.MAC, senderIP, targetIP ethernet.IP) {
	n.arp[senderIP] = senderMAC
	switch op {
	case ethernet.ARPRequest:
		if targetIP != n.cfg.IP {
			return
		}
		n.sendARP(now+n.costs.KernelTX, senderMAC, ethernet.ARP{
			Op: ethernet.ARPReply, SenderMAC: n.cfg.MAC, SenderIP: n.cfg.IP,
			TargetMAC: senderMAC, TargetIP: senderIP,
		})
	case ethernet.ARPReply:
		if waiters := n.arpWaiting[senderIP]; len(waiters) > 0 {
			delete(n.arpWaiting, senderIP)
			for _, w := range waiters {
				w(now, senderMAC)
			}
		}
	}
}

// lookup counts an ARP lookup and returns the cached MAC for ip, if any.
// On a miss the caller passes its send to awaitARP.
func (n *Node) lookup(ip ethernet.IP) (ethernet.MAC, bool) {
	n.stats.ARPLookups++
	mac, ok := n.arp[ip]
	return mac, ok
}

// awaitARP parks fn until ip resolves, issuing an ARP request if none is
// outstanding.
func (n *Node) awaitARP(now clock.Cycles, ip ethernet.IP, fn func(now clock.Cycles, mac ethernet.MAC)) {
	first := len(n.arpWaiting[ip]) == 0
	n.arpWaiting[ip] = append(n.arpWaiting[ip], fn)
	if !first {
		return
	}
	n.sendARP(now+n.costs.KernelTX, ethernet.Broadcast, ethernet.ARP{
		Op: ethernet.ARPRequest, SenderMAC: n.cfg.MAC, SenderIP: n.cfg.IP, TargetIP: ip,
	})
}

func (n *Node) handleIPv4(arrival clock.Cycles, srcMAC ethernet.MAC, payload []byte) {
	pkt, err := ethernet.ParseIPv4(payload)
	if err != nil || pkt.Dst != n.cfg.IP {
		return
	}
	due := arrival + n.costs.IRQLatency + n.costs.KernelRX
	switch pkt.Proto {
	case ethernet.ProtoICMP:
		msg, err := ethernet.ParseICMP(pkt.Payload)
		if err != nil {
			return
		}
		switch msg.Type {
		case ethernet.ICMPEchoRequest:
			n.schedule(due, event{kind: evEchoRequest, id: msg.ID, seq: msg.Seq, arg: msg.SentCycle, ip: pkt.Src, mac: srcMAC})
		case ethernet.ICMPEchoReply:
			n.schedule(due, event{kind: evEchoReply, id: msg.ID, seq: msg.Seq})
		}
	case ethernet.ProtoUDP:
		udp, err := ethernet.ParseUDP(pkt.Payload)
		if err != nil {
			return
		}
		h, ok := n.udp[udp.DstPort]
		if !ok {
			return
		}
		// Kernel RX cost, then deliver to the socket layer.
		n.schedule(due, event{kind: evUDP, ip: pkt.Src, id: udp.SrcPort,
			ref: n.park(callback{udp: h, data: append([]byte(nil), udp.Payload...)})})
	}
}

// pingSend issues pinger id's next echo request and queues the one after.
func (n *Node) pingSend(now clock.Cycles, id uint16) {
	p := n.pingers[id]
	i := p.next
	p.next++
	if p.next < p.count {
		n.events.Push(p.start+clock.Cycles(p.next)*p.interval, p.seq0+uint64(p.next), event{kind: evPingSend, id: id})
	} else if p.finished {
		delete(n.pingers, id)
	}
	seq := uint16(i)
	if int(seq) < len(p.sentAt) {
		p.sentAt[seq] = now
	} else {
		p.sentAt = append(p.sentAt, now)
	}
	msg := ethernet.ICMP{Type: ethernet.ICMPEchoRequest, ID: id, Seq: seq, SentCycle: uint64(now)}
	dst := p.dst
	ready := now + n.costs.KernelTX
	if mac, ok := n.lookup(dst); ok {
		n.sendICMP(ready, mac, dst, msg)
		return
	}
	n.awaitARP(ready, dst, func(now clock.Cycles, mac ethernet.MAC) { n.sendICMP(now, mac, dst, msg) })
}

// pingReply credits an echo reply to its pinger.
func (n *Node) pingReply(now clock.Cycles, id, seq uint16) {
	p, ok := n.pingers[id]
	if !ok || p.finished || int(seq) >= len(p.sentAt) {
		return
	}
	p.results = append(p.results, PingResult{Seq: int(seq), RTT: now - p.sentAt[seq]})
	if len(p.results) == p.count {
		p.finished = true
		if p.next >= p.count {
			delete(n.pingers, id)
		}
		if p.done != nil {
			p.done(p.results)
		}
	}
}

// --- application-facing API ---

// HandleUDP registers a datagram handler for a local port.
func (n *Node) HandleUDP(port uint16, h UDPHandler) { n.udp[port] = h }

// SendUDP transmits a datagram with kernel TX cost applied as latency
// (use SendUDPAccounted when the calling thread already charged the cost
// as CPU time).
func (n *Node) SendUDP(now clock.Cycles, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	n.sendUDPAt(now+n.costs.KernelTX, dst, dstPort, srcPort, payload)
}

// SendUDPAccounted transmits a datagram immediately; the caller has
// already accounted the kernel TX cost as thread CPU time.
func (n *Node) SendUDPAccounted(now clock.Cycles, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	n.sendUDPAt(now, dst, dstPort, srcPort, payload)
}

func (n *Node) sendUDPAt(ready clock.Cycles, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	if mac, ok := n.lookup(dst); ok {
		n.sendUDPFrame(ready, mac, dst, dstPort, srcPort, payload)
		return
	}
	n.awaitARP(ready, dst, func(now clock.Cycles, mac ethernet.MAC) {
		n.sendUDPFrame(now, mac, dst, dstPort, srcPort, payload)
	})
}

func (n *Node) sendUDPFrame(ready clock.Cycles, mac ethernet.MAC, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	b := n.ipv4(mac, dst, ethernet.ProtoUDP, ethernet.UDPHeaderLen+len(payload))
	b = ethernet.AppendUDPHeader(b, srcPort, dstPort, len(payload))
	n.queueFrame(ready, append(b, payload...))
}

// SendRemoteMem transmits a raw remote-memory protocol frame (Section VI).
func (n *Node) SendRemoteMem(ready clock.Cycles, dst ethernet.MAC, payload []byte) {
	b := n.frame(dst, ethernet.TypeRemoteMem, len(payload))
	n.queueFrame(ready, append(b, payload...))
}

// RemoteMemFn receives remote-memory frames after IRQ latency.
type RemoteMemFn func(now clock.Cycles, src ethernet.MAC, payload []byte)

// Ping runs `count` echo round trips to dst, spaced by interval (a
// negative interval counts as 0), invoking done with all results. It
// reproduces the Linux ping utility's behaviour: if dst is not in the ARP
// cache, the first sample includes the ARP round trip (the paper discards
// that first sample for exactly this reason).
//
// Only the next send of a train is ever queued, but Ping reserves all
// count event seqs now, so the sends drain in exactly the order, and
// leave eventSeq at exactly the value, of count events queued up front.
func (n *Node) Ping(start clock.Cycles, dst ethernet.IP, count int, interval clock.Cycles, done func([]PingResult)) {
	id := n.newPingID()
	p := &pinger{
		dst: dst, start: start, count: count, interval: max(interval, 0), done: done,
		results: make([]PingResult, 0, min(max(count, 0), maxWireSeq)),
		sentAt:  make([]clock.Cycles, 0, min(max(count, 0), maxWireSeq)),
	}
	n.pingers[id] = p
	if count <= 0 {
		return
	}
	p.seq0 = n.eventSeq
	n.eventSeq += uint64(count)
	n.events.Push(start, p.seq0, event{kind: evPingSend, id: id})
}

// newPingID returns the next ICMP ID not held by a live pinger.
func (n *Node) newPingID() uint16 {
	for range maxWireSeq {
		id := n.nextID
		n.nextID++
		if _, live := n.pingers[id]; !live {
			return id
		}
	}
	panic(fmt.Sprintf("softstack %s: all %d ping IDs in use", n.cfg.Name, maxWireSeq))
}

// StartRawStream begins a paced raw Ethernet stream to dst, like the
// bare-metal bandwidth test of Section IV-C: frameBytes-sized frames at
// gbps (on a link whose raw rate is 64 bits per cycle). The stream stops
// at stopAt (0 = never).
func (n *Node) StartRawStream(startAt clock.Cycles, dst ethernet.MAC, frameBytes int, gbps float64, stopAt clock.Cycles) {
	payload := make([]byte, frameBytes-ethernet.HeaderLen)
	f := &ethernet.Frame{Dst: dst, Src: n.cfg.MAC, Type: ethernet.TypeIPv4, Payload: payload}
	flits, err := f.FrameFlits()
	if err != nil {
		panic(fmt.Sprintf("softstack: %v", err))
	}
	bitsPerFrame := float64(frameBytes * 8)
	cyclesPerFrame := bitsPerFrame / (gbps * 1e9) * float64(n.cfg.Freq)
	minInterval := float64(len(flits)) // cannot beat line rate
	if cyclesPerFrame < minInterval {
		cyclesPerFrame = minInterval
	}
	n.gen = &generator{dst: dst, flits: flits, next: float64(startAt), interval: cyclesPerFrame, stopAt: stopAt}
}
