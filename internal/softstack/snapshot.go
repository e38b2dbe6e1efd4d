package softstack

import (
	"fmt"

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

// Save implements snapshot.Snapshotter. It refuses non-quiescent nodes,
// so the event queue is always empty here — see Quiescent.
func (n *Node) Save(w *snapshot.Writer) error { return n.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter. The node must have been
// rebuilt from the same Config — same core count and, if the application
// creates threads before restoring, the same thread population — and
// must itself be quiescent: overwriting a node with live closures would
// strand them.
func (n *Node) Restore(r *snapshot.Reader) error { return n.state(snapshot.Decode(r)) }

// state lists the node's data-plane state: clock, counters, the ARP
// table, partial RX assembly, the TX queue and cursor, the raw-stream
// generator, ping IDs, scheduler RNG and per-core/per-thread accounting.
// UDP handlers, the remote-memory hook and Config are application wiring,
// re-established by whoever rebuilds the node.
func (n *Node) state(s *snapshot.State) error {
	if err := n.Quiescent(); err != nil {
		if s.Decoding() {
			return fmt.Errorf("restore target not quiescent: %w", err)
		}
		return err
	}
	s.Begin("softstack.Node", 1)
	snapshot.Fixed(s, &n.cycle)
	s.U64(&n.eventSeq)
	s.U64(&n.stats.FramesSent)
	s.U64(&n.stats.FramesRecv)
	s.U64(&n.stats.BytesSent)
	s.U64(&n.stats.BytesRecv)
	s.U64(&n.stats.ARPLookups)
	snapshot.Map(s, &n.arp, 1<<24, nil, func(ip *ethernet.IP, mac *ethernet.MAC) {
		snapshot.Fixed(s, ip)
		snapshot.Fixed(s, mac)
	})

	snapshot.Slice(s, &n.rxFlits, maxFrameFlits, s.U64)
	txq := n.txq[n.txHead:]
	snapshot.Slice(s, &txq, 1<<24, func(f *txFrame) {
		snapshot.Slice(s, &f.flits, maxFrameFlits, s.U64)
		snapshot.Fixed(s, &f.readyAt)
		snapshot.Uvarint(s, &f.flit)
		s.Check(f.flit <= len(f.flits), "softstack: TX frame cursor %d out of range", f.flit)
	})
	if s.Decoding() {
		n.txq, n.txHead = txq, 0
	}
	snapshot.Fixed(s, &n.txCursor)

	snapshot.Ptr(s, &n.gen, func(g *generator) {
		snapshot.Fixed(s, &g.dst)
		snapshot.Slice(s, &g.flits, maxFrameFlits, s.U64)
		s.F64(&g.next)
		s.F64(&g.interval)
		snapshot.Fixed(s, &g.stopAt)
	})
	snapshot.Uvarint(s, &n.nextID)

	s.U64(&n.sched.rngState)
	s.Shape("cores", len(n.sched.cores))
	for i := range n.sched.cores {
		snapshot.Fixed(s, &n.sched.cores[i].busyUntil)
		snapshot.Fixed(s, &n.sched.cores[i].quantumStart)
	}
	s.Shape("threads", len(n.threads))
	for _, th := range n.threads {
		snapshot.Uvarint(s, &th.lastCore)
		s.U64(&th.wakes)
		snapshot.Fixed(s, &th.Busy)
		s.Check(th.lastCore < len(n.sched.cores), "softstack: thread %d lastCore %d out of range", th.id, th.lastCore)
	}
	return s.Err()
}
