// Package ethernet implements the link-layer and minimal network-layer
// protocols carried over the simulated 200 Gbit/s network.
//
// The simulated links move 64-bit flits (one per target cycle at 3.2 GHz =
// 204.8 Gbit/s raw). A frame is serialised to bytes, split into 8-byte
// flits, and the final flit is marked with the token Last flag; switches
// and NICs delimit packets purely by Last, without parsing the link layer,
// exactly as in the paper.
//
// The frame layout places the destination MAC in the first flit so that a
// switch can route a packet after ingesting a single flit's worth of
// header:
//
//	bytes  0..1   frame length in bytes (simulation framing preamble)
//	bytes  2..7   destination MAC
//	bytes  8..13  source MAC
//	bytes 14..15  EtherType
//	bytes 16..    payload
package ethernet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet address stored in the low bits of a uint64.
type MAC uint64

// Broadcast is the all-ones broadcast address; switches duplicate broadcast
// frames to every port except the ingress port.
const Broadcast MAC = 0xffff_ffff_ffff

// String renders the address in standard colon notation.
func (m MAC) String() string {
	b := m.Bytes()
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", b[0], b[1], b[2], b[3], b[4], b[5])
}

// Bytes returns the 6-byte big-endian representation.
func (m MAC) Bytes() [6]byte {
	var b [6]byte
	for i := 0; i < 6; i++ {
		b[i] = byte(m >> (40 - 8*i))
	}
	return b
}

// MACFromBytes parses a 6-byte big-endian address.
func MACFromBytes(b []byte) MAC {
	var m MAC
	for i := 0; i < 6; i++ {
		m = m<<8 | MAC(b[i])
	}
	return m
}

// IP is an IPv4 address stored big-endian in a uint32.
type IP uint32

// String renders dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherTypes used by the simulated stack.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
	// TypeRemoteMem is the custom link protocol used by the disaggregated
	// memory case study (Section VI): the memory blade speaks a raw
	// request/response protocol directly over Ethernet.
	TypeRemoteMem EtherType = 0x88b5 // IEEE local experimental ethertype
)

// HeaderLen is the serialised frame header length in bytes.
const HeaderLen = 16

// MaxFrameLen bounds serialised frames; it corresponds to a jumbo-ish MTU
// large enough for a 4 KiB page plus headers (the remote-memory protocol
// moves whole pages).
const MaxFrameLen = 65535

// Frame is a link-layer frame.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    EtherType
	Payload []byte
}

// Encode serialises the frame.
func (f *Frame) Encode() ([]byte, error) {
	buf, err := AppendHeader(make([]byte, 0, HeaderLen+len(f.Payload)), f.Dst, f.Src, f.Type, len(f.Payload))
	if err != nil {
		return nil, err
	}
	return append(buf, f.Payload...), nil
}

// AppendHeader appends the header of a frame carrying plen payload bytes
// to b. The caller appends the payload.
func AppendHeader(b []byte, dst, src MAC, typ EtherType, plen int) ([]byte, error) {
	total := HeaderLen + plen
	if total > MaxFrameLen {
		return b, fmt.Errorf("ethernet: frame length %d exceeds max %d", total, MaxFrameLen)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = appendMAC(b, dst)
	b = appendMAC(b, src)
	return binary.BigEndian.AppendUint16(b, uint16(typ)), nil
}

func appendMAC(b []byte, m MAC) []byte {
	return append(b, byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// ParseFrame parses a serialised frame, tolerating trailing padding bytes
// introduced by flit alignment. It does not allocate: the returned
// frame's Payload aliases buf.
func ParseFrame(buf []byte) (Frame, error) {
	if len(buf) < HeaderLen {
		return Frame{}, fmt.Errorf("ethernet: frame too short: %d bytes", len(buf))
	}
	total := int(binary.BigEndian.Uint16(buf[0:2]))
	if total < HeaderLen || total > len(buf) {
		return Frame{}, fmt.Errorf("ethernet: bad frame length field %d (have %d bytes)", total, len(buf))
	}
	return Frame{
		Dst:     MACFromBytes(buf[2:8]),
		Src:     MACFromBytes(buf[8:14]),
		Type:    EtherType(binary.BigEndian.Uint16(buf[14:16])),
		Payload: buf[HeaderLen:total],
	}, nil
}

// FlitSize is the link word size in bytes: 64-bit flits, matching the
// paper's token data field width for 200 Gbit/s links at 3.2 GHz.
const FlitSize = 8

// ToFlits splits a serialised frame into 64-bit link flits, padding the
// final flit with zeros.
func ToFlits(buf []byte) []uint64 {
	return AppendFlits(make([]uint64, 0, (len(buf)+FlitSize-1)/FlitSize), buf)
}

// AppendFlits appends buf to flits as 64-bit link words, padding the final
// word with zeros.
func AppendFlits(flits []uint64, buf []byte) []uint64 {
	for len(buf) >= FlitSize {
		flits = append(flits, binary.BigEndian.Uint64(buf))
		buf = buf[FlitSize:]
	}
	if len(buf) > 0 {
		var word [FlitSize]byte
		copy(word[:], buf)
		flits = append(flits, binary.BigEndian.Uint64(word[:]))
	}
	return flits
}

// FromFlits reassembles the byte stream carried by a sequence of flits.
func FromFlits(flits []uint64) []byte {
	return AppendFlitBytes(make([]byte, 0, len(flits)*FlitSize), flits)
}

// AppendFlitBytes appends the byte stream carried by flits to buf.
func AppendFlitBytes(buf []byte, flits []uint64) []byte {
	for _, f := range flits {
		buf = binary.BigEndian.AppendUint64(buf, f)
	}
	return buf
}

// DstFromFirstFlit extracts the destination MAC from the first flit of a
// frame, letting a switch route after a single flit of header (bytes 2..7
// of the frame are the high-order 6 bytes... of flit 0 after the 2-byte
// length field).
func DstFromFirstFlit(flit0 uint64) MAC {
	return MAC(flit0 & 0xffff_ffff_ffff)
}

// FrameFlits is a convenience: encode a frame and convert it to flits.
func (f *Frame) FrameFlits() ([]uint64, error) {
	buf, err := f.Encode()
	if err != nil {
		return nil, err
	}
	return ToFlits(buf), nil
}
