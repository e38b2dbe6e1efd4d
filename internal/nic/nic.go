// Package nic implements the target server Network Interface Controller of
// Section III-A2 and Figure 3.
//
// The NIC is integrated on-die and connects directly to the SoC's shared
// L2 through DMA (the paper's TileLink attachment). It has three main
// blocks:
//
//   - the controller, which exposes four queues to the CPU as memory-mapped
//     IO registers (send request, receive request, send completion, receive
//     completion) plus an interrupt line asserted while a completion queue
//     is occupied;
//   - the send path: reader (issues memory reads for packet data) →
//     reservation buffer (holds and re-orders read responses) → aligner
//     (handles packets whose start address is not 8-byte aligned) → rate
//     limiter (a token-bucket: a counter incremented by k every p cycles
//     and decremented per flit sent, giving k/p of the unlimited rate,
//     settable at runtime without resynthesis, and backpressuring the NIC
//     internally so it behaves as if it truly ran at the set bandwidth);
//   - the receive path: packet buffer (drops at full-packet granularity
//     when space is insufficient, since the Ethernet network cannot be
//     back-pressured) → writer (DMAs packet data to the buffer addresses
//     provided by the CPU).
//
// The NIC's top-level interface is FAME-1 decoupled: each target cycle it
// consumes one input token and produces one output token.
package nic

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/token"
)

// MMIO register offsets within the NIC's MMIO window.
const (
	RegSendReq  = 0x00 // W: bits 47:0 packet address, 63:48 length in bytes
	RegRecvReq  = 0x08 // W: receive buffer address
	RegCounts   = 0x10 // R: queue occupancy, see CountsOf
	RegSendComp = 0x18 // R: pop one send completion (returns 1)
	RegRecvComp = 0x20 // R: pop one receive completion (returns length)
	RegIntrMask = 0x28 // W: bit 0 send completions, bit 1 receive completions
	RegMACAddr  = 0x30 // R: the NIC's MAC address
	RegRateLim  = 0x38 // W: bits 31:0 = k, 63:32 = p (token bucket)
)

// Interrupt mask bits.
const (
	IntrSend = 1 << 0
	IntrRecv = 1 << 1
)

// Queue capacities, mirroring small on-die hardware queues.
const (
	sendReqQueueCap = 16
	recvReqQueueCap = 16
	compQueueCap    = 16
)

// Memory is the NIC's DMA port into the SoC memory system. Transfers are
// line-granularity for timing but byte-granularity functionally; the
// returned cycle is when the transfer completes.
type Memory interface {
	// ReadDMA reads len(buf) bytes at addr, issued at cycle now.
	ReadDMA(now clock.Cycles, addr uint64, buf []byte) clock.Cycles
	// WriteDMA writes data to addr, issued at cycle now.
	WriteDMA(now clock.Cycles, addr uint64, data []byte) clock.Cycles
}

// Config parameterises the NIC.
type Config struct {
	// MAC is the NIC's address (assigned by the simulation manager).
	MAC ethernet.MAC
	// PacketBufBytes is the receive packet buffer capacity.
	PacketBufBytes int
	// ReservationBufBytes is the send-side reservation buffer capacity.
	ReservationBufBytes int
}

// DefaultConfig returns the standard target NIC configuration.
func DefaultConfig(mac ethernet.MAC) Config {
	return Config{MAC: mac, PacketBufBytes: 64 << 10, ReservationBufBytes: 16 << 10}
}

// Stats counts NIC activity.
type Stats struct {
	PacketsSent  uint64
	PacketsRecv  uint64
	FlitsSent    uint64
	FlitsRecv    uint64
	RecvDropped  uint64 // packets dropped because the packet buffer was full
	RecvNoBuffer uint64 // packets dropped because software provided no buffer
	SendRejected uint64 // MMIO send requests rejected (queue full)
}

type sendReq struct {
	addr uint64
	len  int
}

// inflightSend is a packet moving through reader -> reservation buffer ->
// aligner.
type inflightSend struct {
	data    []byte       // aligned packet bytes (aligner already applied)
	readyAt clock.Cycles // when the DMA reads have all completed
	flit    int          // next flit index to transmit
}

type recvPacket struct {
	data []byte
}

// NIC models the target network interface controller.
type NIC struct {
	cfg Config
	mem Memory

	// controller state
	sendReqs  []sendReq
	recvBufs  []uint64
	sendComps []uint64 // completion tokens (always 1)
	recvComps []uint64 // completion lengths
	intrMask  uint64

	// send path: the reader runs ahead of the transmitter, staging up to
	// two packets in the reservation buffer so that DMA for packet k+1
	// overlaps transmission of packet k.
	pipeline    []*inflightSend
	rateK       uint32
	rateP       uint32
	rateCounter int64
	rateBurst   int64

	// receive path
	rxAssembly  []uint64 // flits of the packet currently arriving
	pktBuf      []recvPacket
	pktBufBytes int
	// rxBusyUntil models the writer DMA occupancy.
	rxBusyUntil clock.Cycles

	cycle clock.Cycles
	stats Stats
}

// New builds a NIC over the given DMA port.
func New(cfg Config, mem Memory) *NIC {
	if cfg.PacketBufBytes == 0 {
		cfg.PacketBufBytes = 64 << 10
	}
	if cfg.ReservationBufBytes == 0 {
		cfg.ReservationBufBytes = 16 << 10
	}
	return &NIC{cfg: cfg, mem: mem, rateK: 1, rateP: 1, rateBurst: 16}
}

// SetRateLimit sets the token bucket to k tokens every p cycles (effective
// bandwidth k/p of the unlimited rate). Panics on p == 0.
func (n *NIC) SetRateLimit(k, p uint32) {
	if p == 0 {
		panic("nic: rate limiter period must be positive")
	}
	n.rateK, n.rateP = k, p
	// A shallow bucket: enough to ride out refill granularity without
	// letting an idle NIC accumulate a large line-rate burst.
	burst := int64(k)
	if burst < 8 {
		burst = 8
	}
	n.rateBurst = burst
	if n.rateCounter > n.rateBurst {
		n.rateCounter = n.rateBurst
	}
}

// --- MMIO (controller) ---

// MMIOLoad services a CPU read of a NIC register at the given offset.
func (n *NIC) MMIOLoad(offset uint64) uint64 {
	switch offset {
	case RegCounts:
		return uint64(sendReqQueueCap-len(n.sendReqs)) |
			uint64(recvReqQueueCap-len(n.recvBufs))<<8 |
			uint64(len(n.sendComps))<<16 |
			uint64(len(n.recvComps))<<24
	case RegSendComp:
		if len(n.sendComps) == 0 {
			return 0
		}
		v := n.sendComps[0]
		n.sendComps = n.sendComps[1:]
		return v
	case RegRecvComp:
		if len(n.recvComps) == 0 {
			return 0
		}
		v := n.recvComps[0]
		n.recvComps = n.recvComps[1:]
		return v
	case RegMACAddr:
		return uint64(n.cfg.MAC)
	default:
		return 0
	}
}

// MMIOStore services a CPU write of a NIC register at the given offset.
func (n *NIC) MMIOStore(offset uint64, v uint64) {
	switch offset {
	case RegSendReq:
		if len(n.sendReqs) >= sendReqQueueCap {
			n.stats.SendRejected++
			return
		}
		n.sendReqs = append(n.sendReqs, sendReq{addr: v & 0xffff_ffff_ffff, len: int(v >> 48)})
	case RegRecvReq:
		if len(n.recvBufs) < recvReqQueueCap {
			n.recvBufs = append(n.recvBufs, v)
		}
	case RegIntrMask:
		n.intrMask = v
	case RegRateLim:
		k := uint32(v)
		p := uint32(v >> 32)
		if p == 0 {
			p = 1
		}
		if k == 0 {
			k = 1
		}
		n.SetRateLimit(k, p)
	}
}

// IntrPending reports whether the NIC interrupt line is asserted: a
// completion queue is occupied and its interrupt is unmasked.
func (n *NIC) IntrPending() bool {
	return (n.intrMask&IntrSend != 0 && len(n.sendComps) > 0) ||
		(n.intrMask&IntrRecv != 0 && len(n.recvComps) > 0)
}

// --- send path ---

// readerDepth is how many packets the reader stages ahead in the
// reservation buffer.
const readerDepth = 2

// startSend moves the head send request through the reader: issue DMA
// reads for the (possibly unaligned) packet data and stage it in the
// reservation buffer. The aligner drops the extra bytes read before and
// after the packet so the first byte delivered is the first packet byte.
func (n *NIC) startSend(now clock.Cycles) {
	req := n.sendReqs[0]
	n.sendReqs = n.sendReqs[1:]

	// The memory interface is 64 bits wide: the reader can only read at
	// 8-byte alignment, so it reads the covering aligned span and the
	// aligner shifts out the slack.
	alignedStart := req.addr &^ 7
	alignedEnd := (req.addr + uint64(req.len) + 7) &^ 7
	span := make([]byte, alignedEnd-alignedStart)
	done := n.mem.ReadDMA(now, alignedStart, span)

	n.pipeline = append(n.pipeline, &inflightSend{
		data:    span[req.addr-alignedStart : req.addr-alignedStart+uint64(req.len)],
		readyAt: done,
	})
}

// sendFlit produces the next output token, applying the rate limiter.
func (n *NIC) sendFlit(now clock.Cycles) token.Token {
	// Token bucket refill.
	if n.rateP == 1 {
		n.rateCounter += int64(n.rateK)
	} else if now%clock.Cycles(n.rateP) == 0 {
		n.rateCounter += int64(n.rateK)
	}
	if n.rateCounter > n.rateBurst {
		n.rateCounter = n.rateBurst
	}

	// Reader prefetch: keep the reservation buffer pipeline primed.
	for len(n.pipeline) < readerDepth && len(n.sendReqs) > 0 {
		n.startSend(now)
	}
	if len(n.pipeline) == 0 {
		return token.Empty
	}
	fl := n.pipeline[0]
	if now < fl.readyAt || n.rateCounter <= 0 {
		return token.Empty // data not yet in the reservation buffer, or throttled
	}

	off := fl.flit * ethernet.FlitSize
	var word [8]byte
	copy(word[:], fl.data[off:])
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(word[i])
	}
	nFlits := (len(fl.data) + ethernet.FlitSize - 1) / ethernet.FlitSize
	last := fl.flit == nFlits-1
	fl.flit++
	n.rateCounter--
	n.stats.FlitsSent++
	if last {
		n.pipeline = n.pipeline[1:]
		n.stats.PacketsSent++
		if len(n.sendComps) < compQueueCap {
			n.sendComps = append(n.sendComps, 1)
		}
	}
	return token.Token{Data: v, Valid: true, Last: last}
}

// --- receive path ---

func (n *NIC) recvFlit(now clock.Cycles, tok token.Token) {
	if !tok.Valid {
		return
	}
	n.stats.FlitsRecv++
	n.rxAssembly = append(n.rxAssembly, tok.Data)
	if !tok.Last {
		return
	}
	// Full packet received: buffer it or drop it whole.
	data := ethernet.FromFlits(n.rxAssembly)
	n.rxAssembly = n.rxAssembly[:0]
	if n.pktBufBytes+len(data) > n.cfg.PacketBufBytes {
		n.stats.RecvDropped++
		return
	}
	n.pktBuf = append(n.pktBuf, recvPacket{data: data})
	n.pktBufBytes += len(data)
}

// drainRecv moves buffered packets to software-provided receive buffers
// through the writer.
func (n *NIC) drainRecv(now clock.Cycles) {
	for len(n.pktBuf) > 0 && len(n.recvBufs) > 0 && len(n.recvComps) < compQueueCap && now >= n.rxBusyUntil {
		pkt := n.pktBuf[0]
		n.pktBuf = n.pktBuf[1:]
		n.pktBufBytes -= len(pkt.data)
		buf := n.recvBufs[0]
		n.recvBufs = n.recvBufs[1:]
		n.rxBusyUntil = n.mem.WriteDMA(now, buf, pkt.data)
		n.recvComps = append(n.recvComps, uint64(len(pkt.data)))
		n.stats.PacketsRecv++
	}
}

// Tick advances the NIC by one target cycle: it consumes the input token
// and produces the output token, per the FAME-1 decoupled contract.
func (n *NIC) Tick(now clock.Cycles, in token.Token) token.Token {
	n.cycle = now
	n.recvFlit(now, in)
	n.drainRecv(now)
	return n.sendFlit(now)
}

// Quiescent reports whether, fed only empty input tokens, every future
// Tick would be a pure no-op apart from the cycle register and the rate
// limiter's token-bucket refill: nothing staged to send, nothing buffered
// to deliver, no packet mid-assembly. Under that condition a window of
// idle cycles can be replayed arithmetically by SkipIdle.
func (n *NIC) Quiescent() bool {
	return len(n.pipeline) == 0 && len(n.sendReqs) == 0 &&
		len(n.pktBuf) == 0 && len(n.rxAssembly) == 0
}

// SkipIdle advances a quiescent NIC across cycles [start, start+count) in
// one step, bit-identical to count calls of Tick(start+i, token.Empty):
// the cycle register lands on the last skipped cycle and the token bucket
// receives exactly the refills those cycles would have granted. The caller
// must have checked Quiescent; every produced output token is token.Empty.
func (n *NIC) SkipIdle(start clock.Cycles, count int) {
	if count <= 0 {
		return
	}
	n.cycle = start + clock.Cycles(count) - 1
	// Refills granted in [start, start+count): every cycle when p == 1,
	// otherwise one per multiple of p in the window. Because refills only
	// add and sends are absent, clamping once at the end is identical to
	// clamping every cycle.
	var refills int64
	if n.rateP == 1 {
		refills = int64(count)
	} else {
		p := clock.Cycles(n.rateP)
		last := start + clock.Cycles(count) - 1
		refills = int64(last / p)
		if start > 0 {
			refills -= int64((start - 1) / p)
		} else {
			refills++ // cycle 0 is a multiple of p
		}
	}
	n.rateCounter += refills * int64(n.rateK)
	if n.rateCounter > n.rateBurst {
		n.rateCounter = n.rateBurst
	}
}

// String summarises the NIC for diagnostics.
func (n *NIC) String() string {
	return fmt.Sprintf("NIC(%v: sent=%d recv=%d drop=%d)", n.cfg.MAC, n.stats.PacketsSent, n.stats.PacketsRecv, n.stats.RecvDropped)
}
