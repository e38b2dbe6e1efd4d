package ethernet

import (
	"encoding/binary"
	"fmt"
)

// Protocol identifies the transport protocol inside an IPv4 packet.
type Protocol uint8

// Transport protocols used by the simulated software stacks.
const (
	ProtoICMP Protocol = 1
	ProtoUDP  Protocol = 17
)

// IPv4HeaderLen is the fixed (option-free) header length used in
// simulation.
const IPv4HeaderLen = 12

// IPv4 is a simplified option-free IPv4 header plus payload.
type IPv4 struct {
	Src, Dst IP
	Proto    Protocol
	TTL      uint8
	Payload  []byte
}

// AppendIPv4Header appends the header of a packet carrying plen payload
// bytes to b. The caller appends the payload. The packet layout is:
//
//	bytes 0..3  src IP
//	bytes 4..7  dst IP
//	byte  8     protocol
//	byte  9     TTL
//	bytes 10..11 payload length
//	bytes 12..  payload
func AppendIPv4Header(b []byte, src, dst IP, proto Protocol, ttl uint8, plen int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	b = binary.BigEndian.AppendUint32(b, uint32(dst))
	b = append(b, byte(proto), ttl)
	return binary.BigEndian.AppendUint16(b, uint16(plen))
}

// ParseIPv4 parses a serialised IPv4 packet without allocating: the
// returned packet's Payload aliases buf.
func ParseIPv4(buf []byte) (IPv4, error) {
	if len(buf) < IPv4HeaderLen {
		return IPv4{}, fmt.Errorf("ethernet: ipv4 packet too short: %d bytes", len(buf))
	}
	plen := int(binary.BigEndian.Uint16(buf[10:12]))
	if IPv4HeaderLen+plen > len(buf) {
		return IPv4{}, fmt.Errorf("ethernet: ipv4 payload length %d exceeds buffer", plen)
	}
	return IPv4{
		Src:     IP(binary.BigEndian.Uint32(buf[0:4])),
		Dst:     IP(binary.BigEndian.Uint32(buf[4:8])),
		Proto:   Protocol(buf[8]),
		TTL:     buf[9],
		Payload: buf[IPv4HeaderLen : IPv4HeaderLen+plen],
	}, nil
}

// ICMPType distinguishes echo requests from replies.
type ICMPType uint8

// ICMP message types used by the ping workload.
const (
	ICMPEchoRequest ICMPType = 8
	ICMPEchoReply   ICMPType = 0
)

// ICMP is an echo request/reply message. SentCycle carries the sender's
// transmission timestamp so RTT can be computed without shared clocks (the
// network is globally cycle-synchronous, so timestamps are comparable).
type ICMP struct {
	Type      ICMPType
	ID        uint16
	Seq       uint16
	SentCycle uint64
}

// ICMPLen is the serialised ICMP echo message length.
const ICMPLen = 16

// Append appends the serialised message to b.
func (m *ICMP) Append(b []byte) []byte {
	b = append(b, byte(m.Type), 0)
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.Seq)
	b = append(b, 0, 0)
	return binary.BigEndian.AppendUint64(b, m.SentCycle)
}

// ParseICMP parses a serialised ICMP message.
func ParseICMP(buf []byte) (ICMP, error) {
	if len(buf) < ICMPLen {
		return ICMP{}, fmt.Errorf("ethernet: icmp message too short: %d bytes", len(buf))
	}
	return ICMP{
		Type:      ICMPType(buf[0]),
		ID:        binary.BigEndian.Uint16(buf[2:4]),
		Seq:       binary.BigEndian.Uint16(buf[4:6]),
		SentCycle: binary.BigEndian.Uint64(buf[8:16]),
	}, nil
}

// UDPHeaderLen is the serialised UDP header length.
const UDPHeaderLen = 8

// UDP is a datagram header plus payload.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// AppendUDPHeader appends the header of a datagram carrying plen payload
// bytes to b. The caller appends the payload.
func AppendUDPHeader(b []byte, srcPort, dstPort uint16, plen int) []byte {
	b = binary.BigEndian.AppendUint16(b, srcPort)
	b = binary.BigEndian.AppendUint16(b, dstPort)
	return binary.BigEndian.AppendUint32(b, uint32(plen))
}

// ParseUDP parses a serialised datagram without allocating: the returned
// datagram's Payload aliases buf.
func ParseUDP(buf []byte) (UDP, error) {
	if len(buf) < UDPHeaderLen {
		return UDP{}, fmt.Errorf("ethernet: udp datagram too short: %d bytes", len(buf))
	}
	plen := int(binary.BigEndian.Uint32(buf[4:8]))
	if UDPHeaderLen+plen > len(buf) {
		return UDP{}, fmt.Errorf("ethernet: udp payload length %d exceeds buffer", plen)
	}
	return UDP{
		SrcPort: binary.BigEndian.Uint16(buf[0:2]),
		DstPort: binary.BigEndian.Uint16(buf[2:4]),
		Payload: buf[UDPHeaderLen : UDPHeaderLen+plen],
	}, nil
}

// ARPOp distinguishes ARP requests from replies.
type ARPOp uint16

// ARP operations.
const (
	ARPRequest ARPOp = 1
	ARPReply   ARPOp = 2
)

// ARP resolves IP addresses to MAC addresses. The paper's ping benchmark
// explicitly discards the first sample because it includes an ARP
// round-trip; modeling ARP lets us reproduce that artifact.
type ARP struct {
	Op        ARPOp
	SenderMAC MAC
	SenderIP  IP
	TargetMAC MAC
	TargetIP  IP
}

// ARPLen is the serialised ARP message length.
const ARPLen = 2 + 8 + 4 + 8 + 4

// Append appends the serialised message to b.
func (a *ARP) Append(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(a.Op))
	b = binary.BigEndian.AppendUint64(b, uint64(a.SenderMAC))
	b = binary.BigEndian.AppendUint32(b, uint32(a.SenderIP))
	b = binary.BigEndian.AppendUint64(b, uint64(a.TargetMAC))
	return binary.BigEndian.AppendUint32(b, uint32(a.TargetIP))
}

// ParseARP parses a serialised ARP message.
func ParseARP(buf []byte) (ARP, error) {
	if len(buf) < ARPLen {
		return ARP{}, fmt.Errorf("ethernet: arp message too short: %d bytes", len(buf))
	}
	return ARP{
		Op:        ARPOp(binary.BigEndian.Uint16(buf[0:2])),
		SenderMAC: MAC(binary.BigEndian.Uint64(buf[2:10])),
		SenderIP:  IP(binary.BigEndian.Uint32(buf[10:14])),
		TargetMAC: MAC(binary.BigEndian.Uint64(buf[14:22])),
		TargetIP:  IP(binary.BigEndian.Uint32(buf[22:26])),
	}, nil
}
