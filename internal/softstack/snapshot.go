package softstack

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/snapshot"
)

// maxFrameFlits bounds one frame in a checkpoint.
const maxFrameFlits = 1 << 20

// Quiescent reports whether the node can be checkpointed: no pending
// events, no outstanding ARP resolutions, no active pingers, no thread
// with queued or in-flight CPU work. Kernel events are typed records of
// plain data, but the queue is not serialised yet, and application
// callbacks (At, Job.Fn) and ARP waiters are still Go closures with no
// serialisable representation — checkpointing is only defined at points
// where the queue is empty. Pure data paths (the TX queue, the raw-stream
// generator, partial RX assembly) do not affect quiescence.
func (n *Node) Quiescent() error {
	if k := n.events.Len(); k > 0 {
		return fmt.Errorf("softstack %s: %d pending events (in-flight kernel work cannot be serialised)", n.cfg.Name, k)
	}
	if len(n.arpWaiting) > 0 {
		return fmt.Errorf("softstack %s: %d outstanding ARP resolutions", n.cfg.Name, len(n.arpWaiting))
	}
	if len(n.pingers) > 0 {
		return fmt.Errorf("softstack %s: %d active pingers", n.cfg.Name, len(n.pingers))
	}
	for i := range n.sched.cores {
		c := &n.sched.cores[i]
		if c.current != nil || len(c.runq) > 0 {
			return fmt.Errorf("softstack %s: core %d has runnable threads", n.cfg.Name, i)
		}
	}
	for _, th := range n.threads {
		if len(th.jobs) > 0 || th.running {
			return fmt.Errorf("softstack %s: thread %d has queued jobs", n.cfg.Name, th.id)
		}
	}
	return nil
}

// Save serialises the node's data-plane state: clock, counters, the ARP
// table (sorted by IP for canonical bytes), partial RX assembly, the TX
// queue and cursor, the raw-stream generator, ping IDs, scheduler RNG and
// per-core/per-thread accounting. It refuses non-quiescent nodes, so the
// event queue is always empty here — see Quiescent. UDP handlers, the remote-memory hook and Config are
// application wiring, re-established by whoever rebuilds the node.
func (n *Node) Save(w *snapshot.Writer) error {
	if err := n.Quiescent(); err != nil {
		return err
	}
	w.Begin("softstack.Node", 1)
	w.U64(uint64(n.cycle))
	w.U64(n.eventSeq)
	w.U64(n.stats.FramesSent)
	w.U64(n.stats.FramesRecv)
	w.U64(n.stats.BytesSent)
	w.U64(n.stats.BytesRecv)
	w.U64(n.stats.ARPLookups)

	ips := make([]ethernet.IP, 0, len(n.arp))
	for ip := range n.arp {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	w.Uvarint(uint64(len(ips)))
	for _, ip := range ips {
		w.U64(uint64(ip))
		w.U64(uint64(n.arp[ip]))
	}

	w.Uvarint(uint64(len(n.rxFlits)))
	for _, f := range n.rxFlits {
		w.U64(f)
	}
	txq := n.txq[n.txHead:]
	w.Uvarint(uint64(len(txq)))
	for i := range txq {
		f := &txq[i]
		w.Uvarint(uint64(len(f.flits)))
		for _, fl := range f.flits {
			w.U64(fl)
		}
		w.U64(uint64(f.readyAt))
		w.Uvarint(uint64(f.flit))
	}
	w.U64(uint64(n.txCursor))

	if g := n.gen; g != nil {
		w.Bool(true)
		w.U64(uint64(g.dst))
		w.Uvarint(uint64(len(g.flits)))
		for _, fl := range g.flits {
			w.U64(fl)
		}
		w.F64(g.next)
		w.F64(g.interval)
		w.U64(uint64(g.stopAt))
	} else {
		w.Bool(false)
	}
	w.Uvarint(uint64(n.nextID))

	w.U64(n.sched.rngState)
	w.Uvarint(uint64(len(n.sched.cores)))
	for i := range n.sched.cores {
		c := &n.sched.cores[i]
		w.U64(uint64(c.busyUntil))
		w.U64(uint64(c.quantumStart))
	}
	w.Uvarint(uint64(len(n.threads)))
	for _, th := range n.threads {
		w.Uvarint(uint64(th.lastCore))
		w.U64(th.wakes)
		w.U64(uint64(th.Busy))
	}
	return w.Err()
}

// Restore overwrites the node's data-plane state from r. The node must
// have been rebuilt from the same Config — same core count and, if the
// application creates threads before restoring, the same thread
// population.
func (n *Node) Restore(r *snapshot.Reader) error {
	if err := r.Begin("softstack.Node", 1); err != nil {
		return err
	}
	cycle := clock.Cycles(r.U64())
	eventSeq := r.U64()
	var stats Stats
	stats.FramesSent = r.U64()
	stats.FramesRecv = r.U64()
	stats.BytesSent = r.U64()
	stats.BytesRecv = r.U64()
	stats.ARPLookups = r.U64()

	narp := r.Count(1 << 24)
	if err := r.Err(); err != nil {
		return err
	}
	arp := make(map[ethernet.IP]ethernet.MAC, narp)
	var prevIP uint64
	for i := 0; i < narp; i++ {
		ip := r.U64()
		mac := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if i > 0 && ip <= prevIP {
			return fmt.Errorf("softstack %s: checkpoint ARP entries out of order", n.cfg.Name)
		}
		if ip > uint64(^uint32(0)) {
			return fmt.Errorf("softstack %s: checkpoint ARP IP %#x out of range", n.cfg.Name, ip)
		}
		prevIP = ip
		arp[ethernet.IP(ip)] = ethernet.MAC(mac)
	}

	rxFlits := make([]uint64, r.Count(maxFrameFlits))
	for i := range rxFlits {
		rxFlits[i] = r.U64()
	}
	ntx := r.Count(1 << 24)
	if err := r.Err(); err != nil {
		return err
	}
	txq := make([]txFrame, ntx)
	for i := range txq {
		nf := r.Count(maxFrameFlits)
		if err := r.Err(); err != nil {
			return err
		}
		txq[i].flits = make([]uint64, nf)
		for k := range txq[i].flits {
			txq[i].flits[k] = r.U64()
		}
		txq[i].readyAt = clock.Cycles(r.U64())
		txq[i].flit = int(r.Uvarint())
		if err := r.Err(); err != nil {
			return err
		}
		if txq[i].flit < 0 || txq[i].flit > nf {
			return fmt.Errorf("softstack %s: checkpoint TX frame %d cursor out of range", n.cfg.Name, i)
		}
	}
	txCursor := clock.Cycles(r.U64())

	var gen *generator
	if r.Bool() {
		gen = &generator{dst: ethernet.MAC(r.U64())}
		nf := r.Count(maxFrameFlits)
		if err := r.Err(); err != nil {
			return err
		}
		gen.flits = make([]uint64, nf)
		for i := range gen.flits {
			gen.flits[i] = r.U64()
		}
		gen.next = r.F64()
		gen.interval = r.F64()
		gen.stopAt = clock.Cycles(r.U64())
	}
	nextID := r.Uvarint()

	rngState := r.U64()
	ncores := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if ncores != uint64(len(n.sched.cores)) {
		return fmt.Errorf("softstack %s: checkpoint has %d cores, node has %d", n.cfg.Name, ncores, len(n.sched.cores))
	}
	cores := make([]struct{ busyUntil, quantumStart clock.Cycles }, ncores)
	for i := range cores {
		cores[i].busyUntil = clock.Cycles(r.U64())
		cores[i].quantumStart = clock.Cycles(r.U64())
	}
	nthreads := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if nthreads != uint64(len(n.threads)) {
		return fmt.Errorf("softstack %s: checkpoint has %d threads, node has %d", n.cfg.Name, nthreads, len(n.threads))
	}
	type threadState struct {
		lastCore int
		wakes    uint64
		busy     clock.Cycles
	}
	threads := make([]threadState, nthreads)
	for i := range threads {
		threads[i].lastCore = int(r.Uvarint())
		threads[i].wakes = r.U64()
		threads[i].busy = clock.Cycles(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		if threads[i].lastCore < 0 || threads[i].lastCore >= int(ncores) {
			return fmt.Errorf("softstack %s: checkpoint thread %d lastCore out of range", n.cfg.Name, i)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if nextID > uint64(^uint16(0)) {
		return fmt.Errorf("softstack %s: checkpoint ping ID %d out of range", n.cfg.Name, nextID)
	}
	// The restore target must itself be quiescent; overwriting a node with
	// live closures would strand them.
	if err := n.Quiescent(); err != nil {
		return fmt.Errorf("restore target not quiescent: %w", err)
	}
	n.cycle = cycle
	n.eventSeq = eventSeq
	n.stats = stats
	n.arp = arp
	n.rxFlits = rxFlits
	n.txq, n.txHead = txq, 0
	n.txCursor = txCursor
	n.gen = gen
	n.nextID = uint16(nextID)
	n.sched.rngState = rngState
	for i := range n.sched.cores {
		n.sched.cores[i].busyUntil = cores[i].busyUntil
		n.sched.cores[i].quantumStart = cores[i].quantumStart
	}
	for i, th := range n.threads {
		th.lastCore = threads[i].lastCore
		th.wakes = threads[i].wakes
		th.Busy = threads[i].busy
	}
	return nil
}
