package switchmodel

import (
	"repro/internal/ethernet"
	"repro/internal/snapshot"
)

// maxPacketFlits bounds one packet in a checkpoint (a jumbo frame is ~9KB
// = ~1200 flits; the cap just stops corrupted streams from allocating).
const maxPacketFlits = 1 << 20

// Save implements snapshot.Snapshotter.
func (s *Switch) Save(w *snapshot.Writer) error { return s.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (s *Switch) Restore(r *snapshot.Reader) error { return s.state(snapshot.Decode(r)) }

// state lists the switch's dynamic state: cycle, per-ingress partial
// assemblies, and per-egress queues including the in-flight transmission.
// The pending queue is empty between rounds, so nothing in the stream
// depends on how the host cut target time into windows. The router table,
// probe and stall hook are wiring re-installed by Deploy.
// Decoding rebuilds the ports from scratch and recomputes each egress
// port's byte occupancy.
func (s *Switch) state(st *snapshot.State) error {
	st.Begin("switchmodel.Switch", 2)
	st.Shape("ports", s.cfg.Ports)
	snapshot.Fixed(st, &s.cycle)
	if st.Decoding() {
		s.in = make([]inPort, s.cfg.Ports)
		s.out = make([]outPort, s.cfg.Ports)
	}
	for p := range s.in {
		ip := &s.in[p]
		var flits []uint64
		if ip.cur != nil {
			flits = ip.cur.Flits
		}
		snapshot.Slice(st, &flits, maxPacketFlits, st.U64)
		if st.Decoding() && len(flits) > 0 {
			ip.cur = &Packet{Flits: flits}
		}
	}
	for p := range s.out {
		o := &s.out[p]
		n := o.queue.len()
		st.Count(&n, 1<<24)
		bytes := 0
		for i := 0; i < n && st.Err() == nil; i++ {
			if st.Decoding() {
				o.queue.push(&Packet{})
			}
			pkt := o.queue.at(i)
			s.packetState(st, pkt)
			bytes += len(pkt.Flits) * ethernet.FlitSize
		}
		snapshot.Ptr(st, &o.tx, func(pkt *Packet) {
			s.packetState(st, pkt)
			snapshot.Uvarint(st, &o.txFlit)
			st.Check(o.txFlit < len(pkt.Flits), "switchmodel: tx cursor %d out of range", o.txFlit)
			// An in-flight packet still occupies its full footprint in the
			// output buffer; bytes are released only at last-flit egress.
			bytes += len(pkt.Flits) * ethernet.FlitSize
		})
		st.Check(bytes <= s.cfg.OutputBufferBytes, "switchmodel: port %d holds more than its output buffer", p)
		if st.Decoding() {
			o.queuedBytes = bytes
		}
	}
	st.U64(&s.stats.PacketsIn)
	st.U64(&s.stats.PacketsOut)
	st.U64(&s.stats.FlitsIn)
	st.U64(&s.stats.FlitsOut)
	st.U64(&s.stats.DropsBufFull)
	st.U64(&s.stats.DropsStale)
	st.U64(&s.stats.DropsUnroutable)
	st.U64(&s.stats.BytesSwitched)
	st.U64(&s.stats.StallCycles)
	return st.Err()
}

// packetState lists one queued or in-flight packet. Broadcast sharing is
// not reconstructed: each decoded packet is its own single-reference
// packet, which releases and recycles identically.
func (s *Switch) packetState(st *snapshot.State, pkt *Packet) {
	snapshot.Slice(st, &pkt.Flits, maxPacketFlits, st.U64)
	snapshot.Uvarint(st, &pkt.InPort)
	snapshot.Fixed(st, &pkt.Release)
	st.Check(len(pkt.Flits) > 0, "switchmodel: packet has no flits")
	st.Check(pkt.InPort < s.cfg.Ports, "switchmodel: packet ingress port %d out of range", pkt.InPort)
	if st.Decoding() {
		pkt.refs = 1
	}
}
