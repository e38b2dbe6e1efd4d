package nic

import "repro/internal/snapshot"

// maxFrameBytes bounds one packet in a checkpoint; anything larger than
// the receive packet buffer could never have existed in a live NIC.
const maxFrameBytes = 1 << 20

// Save implements snapshot.Snapshotter.
func (n *NIC) Save(w *snapshot.Writer) error { return n.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (n *NIC) Restore(r *snapshot.Reader) error { return n.state(snapshot.Decode(r)) }

// state lists the full NIC state: controller queues, the send pipeline
// (staged packet bytes, DMA ready times, flit cursors), rate limiter,
// receive assembly and packet buffer, writer occupancy and counters. The
// hardware queue capacities bound every decoded queue, so a corrupted
// stream cannot inflate on-die buffers. Config and the DMA port are
// wiring, re-established by the SoC rebuild.
func (n *NIC) state(s *snapshot.State) error {
	s.Begin("nic.NIC", 1)
	snapshot.Slice(s, &n.sendReqs, sendReqQueueCap, func(rq *sendReq) {
		s.U64(&rq.addr)
		snapshot.Uvarint(s, &rq.len)
	})
	snapshot.Slice(s, &n.recvBufs, recvReqQueueCap, s.U64)
	snapshot.Slice(s, &n.sendComps, compQueueCap, s.U64)
	snapshot.Slice(s, &n.recvComps, compQueueCap, s.U64)
	s.U64(&n.intrMask)

	snapshot.Slice(s, &n.pipeline, readerDepth, func(fl **inflightSend) {
		if s.Decoding() {
			*fl = new(inflightSend)
		}
		f := *fl
		s.Bytes(&f.data, maxFrameBytes)
		snapshot.Fixed(s, &f.readyAt)
		snapshot.Uvarint(s, &f.flit)
		s.Check(f.flit <= (len(f.data)+7)/8, "nic: pipeline flit cursor %d out of range", f.flit)
	})
	snapshot.Uvarint(s, &n.rateK)
	snapshot.Uvarint(s, &n.rateP)
	snapshot.Fixed(s, &n.rateCounter)
	snapshot.Fixed(s, &n.rateBurst)
	s.Check(n.rateP != 0, "nic: rate limiter period is zero")

	snapshot.Slice(s, &n.rxAssembly, maxFrameBytes/8, s.U64)
	pktBufBytes := 0
	snapshot.Slice(s, &n.pktBuf, n.cfg.PacketBufBytes, func(p *recvPacket) {
		s.Bytes(&p.data, maxFrameBytes)
		pktBufBytes += len(p.data)
	})
	s.Check(pktBufBytes <= n.cfg.PacketBufBytes, "nic: packet buffer holds %d bytes, capacity %d", pktBufBytes, n.cfg.PacketBufBytes)
	if s.Decoding() {
		n.pktBufBytes = pktBufBytes
	}
	snapshot.Fixed(s, &n.rxBusyUntil)
	snapshot.Fixed(s, &n.cycle)

	s.U64(&n.stats.PacketsSent)
	s.U64(&n.stats.PacketsRecv)
	s.U64(&n.stats.FlitsSent)
	s.U64(&n.stats.FlitsRecv)
	s.U64(&n.stats.RecvDropped)
	s.U64(&n.stats.RecvNoBuffer)
	s.U64(&n.stats.SendRejected)
	return s.Err()
}
