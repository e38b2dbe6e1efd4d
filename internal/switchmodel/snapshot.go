package switchmodel

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/snapshot"
)

// maxPacketFlits bounds one packet in a checkpoint (a jumbo frame is ~9KB
// = ~1200 flits; the cap just stops corrupted streams from allocating).
const maxPacketFlits = 1 << 20

func savePacket(w *snapshot.Writer, pkt *Packet) {
	w.Uvarint(uint64(len(pkt.Flits)))
	for _, f := range pkt.Flits {
		w.U64(f)
	}
	w.Uvarint(uint64(pkt.InPort))
	w.U64(uint64(pkt.Release))
}

func (s *Switch) restorePacket(r *snapshot.Reader) (*Packet, error) {
	pkt := &Packet{}
	nf := r.Count(maxPacketFlits)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nf == 0 {
		return nil, fmt.Errorf("switchmodel %s: restored packet has no flits", s.cfg.Name)
	}
	pkt.Flits = make([]uint64, nf)
	for i := range pkt.Flits {
		pkt.Flits[i] = r.U64()
	}
	pkt.InPort = int(r.Uvarint())
	pkt.Release = clock.Cycles(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if pkt.InPort < 0 || pkt.InPort >= s.cfg.Ports {
		return nil, fmt.Errorf("switchmodel %s: restored packet ingress port %d out of range", s.cfg.Name, pkt.InPort)
	}
	return pkt, nil
}

// Save serialises the switch's dynamic state: cycle, per-ingress partial
// assemblies, and per-egress queues including the in-flight transmission.
// The pending queue is empty between rounds, so nothing in the stream
// depends on how the host cut target time into windows. The router table,
// probe, stall hook and metrics are wiring re-installed by Deploy.
func (s *Switch) Save(w *snapshot.Writer) error {
	w.Begin("switchmodel.Switch", 2)
	w.Uvarint(uint64(s.cfg.Ports))
	w.U64(uint64(s.cycle))
	for p := range s.in {
		ip := &s.in[p]
		var flits []uint64
		if ip.cur != nil {
			flits = ip.cur.Flits
		}
		w.Uvarint(uint64(len(flits)))
		for _, f := range flits {
			w.U64(f)
		}
	}
	for p := range s.out {
		o := &s.out[p]
		w.Uvarint(uint64(o.queue.len()))
		for i := 0; i < o.queue.len(); i++ {
			savePacket(w, o.queue.at(i))
		}
		if o.tx != nil {
			w.Bool(true)
			savePacket(w, o.tx)
			w.Uvarint(uint64(o.txFlit))
		} else {
			w.Bool(false)
		}
	}
	w.U64(s.stats.PacketsIn)
	w.U64(s.stats.PacketsOut)
	w.U64(s.stats.FlitsIn)
	w.U64(s.stats.FlitsOut)
	w.U64(s.stats.DropsBufFull)
	w.U64(s.stats.DropsStale)
	w.U64(s.stats.DropsUnroutable)
	w.U64(s.stats.BytesSwitched)
	w.U64(s.stats.StallCycles)
	return w.Err()
}

// Restore overwrites the switch's dynamic state from r, recomputing each
// egress port's byte occupancy from the restored queues and republishing
// the concurrent-reader snapshots.
func (s *Switch) Restore(r *snapshot.Reader) error {
	if err := r.Begin("switchmodel.Switch", 2); err != nil {
		return err
	}
	ports := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if ports != uint64(s.cfg.Ports) {
		return fmt.Errorf("switchmodel %s: checkpoint has %d ports, switch has %d", s.cfg.Name, ports, s.cfg.Ports)
	}
	cycle := clock.Cycles(r.U64())
	in := make([]inPort, s.cfg.Ports)
	for p := range in {
		nf := r.Count(maxPacketFlits)
		if err := r.Err(); err != nil {
			return err
		}
		if nf > 0 {
			cur := &Packet{Flits: make([]uint64, nf)}
			for i := range cur.Flits {
				cur.Flits[i] = r.U64()
			}
			in[p].cur = cur
		}
	}
	out := make([]outPort, s.cfg.Ports)
	for p := range out {
		o := &out[p]
		nq := r.Count(1 << 24)
		if err := r.Err(); err != nil {
			return err
		}
		for i := 0; i < nq; i++ {
			pkt, err := s.restorePacket(r)
			if err != nil {
				return err
			}
			// Broadcast sharing is not reconstructed: each restored queue
			// entry is its own single-reference packet, which releases and
			// recycles identically.
			pkt.refs = 1
			o.queue.push(pkt)
			o.queuedBytes += len(pkt.Flits) * ethernet.FlitSize
		}
		if r.Bool() {
			pkt, err := s.restorePacket(r)
			if err != nil {
				return err
			}
			txFlit := int(r.Uvarint())
			if err := r.Err(); err != nil {
				return err
			}
			if txFlit < 0 || txFlit >= len(pkt.Flits) {
				return fmt.Errorf("switchmodel %s: restored tx cursor %d out of range", s.cfg.Name, txFlit)
			}
			pkt.refs = 1
			o.tx = pkt
			o.txFlit = txFlit
			// An in-flight packet still occupies its full footprint in the
			// output buffer; bytes are released only at last-flit egress.
			o.queuedBytes += len(pkt.Flits) * ethernet.FlitSize
		}
		if o.queuedBytes > s.cfg.OutputBufferBytes {
			return fmt.Errorf("switchmodel %s: restored port %d holds %d bytes, buffer is %d",
				s.cfg.Name, p, o.queuedBytes, s.cfg.OutputBufferBytes)
		}
	}
	var stats Stats
	stats.PacketsIn = r.U64()
	stats.PacketsOut = r.U64()
	stats.FlitsIn = r.U64()
	stats.FlitsOut = r.U64()
	stats.DropsBufFull = r.U64()
	stats.DropsStale = r.U64()
	stats.DropsUnroutable = r.U64()
	stats.BytesSwitched = r.U64()
	stats.StallCycles = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	s.cycle = cycle
	s.in = in
	s.out = out
	s.stats = stats
	// Republish for concurrent readers, exactly as TickBatch does.
	s.publishStats()
	return nil
}
