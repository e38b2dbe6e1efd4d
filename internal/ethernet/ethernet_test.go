package ethernet

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC(0x0242ac110002)
	if got := m.String(); got != "02:42:ac:11:00:02" {
		t.Errorf("String() = %q", got)
	}
	if got := Broadcast.String(); got != "ff:ff:ff:ff:ff:ff" {
		t.Errorf("Broadcast.String() = %q", got)
	}
}

func TestMACBytesRoundTrip(t *testing.T) {
	check := func(raw uint64) bool {
		m := MAC(raw & 0xffff_ffff_ffff)
		b := m.Bytes()
		return MACFromBytes(b[:]) == m
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestIPString(t *testing.T) {
	ip := IP(0x0a000001)
	if got := ip.String(); got != "10.0.0.1" {
		t.Errorf("String() = %q", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Dst:     MAC(0x111111111111),
		Src:     MAC(0x222222222222),
		Type:    TypeIPv4,
		Payload: []byte("hello, datacenter"),
	}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*f, got) {
		t.Errorf("round trip mismatch:\nhave %+v\nwant %+v", got, f)
	}
}

func TestFrameTooLong(t *testing.T) {
	f := &Frame{Payload: make([]byte, MaxFrameLen)}
	if _, err := f.Encode(); err == nil {
		t.Error("oversized frame encoded without error")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := ParseFrame([]byte{1, 2, 3}); err == nil {
		t.Error("short frame decoded without error")
	}
	// length field larger than buffer
	f := &Frame{Dst: 1, Src: 2, Type: TypeARP, Payload: []byte("xy")}
	buf, _ := f.Encode()
	buf[0], buf[1] = 0xff, 0xff
	if _, err := ParseFrame(buf); err == nil {
		t.Error("frame with oversized length field decoded without error")
	}
}

func TestFlitRoundTripWithPadding(t *testing.T) {
	// Property: any frame survives flit conversion regardless of how its
	// length aligns to the 8-byte flit size.
	check := func(payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		f := &Frame{Dst: MAC(0xaabbccddeeff), Src: MAC(0x010203040506), Type: TypeIPv4, Payload: payload}
		flits, err := f.FrameFlits()
		if err != nil {
			return false
		}
		got, err := ParseFrame(FromFlits(flits))
		if err != nil {
			return false
		}
		return got.Dst == f.Dst && got.Src == f.Src && got.Type == f.Type &&
			bytes.Equal(got.Payload, f.Payload)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestDstFromFirstFlit(t *testing.T) {
	f := &Frame{Dst: MAC(0xdeadbeefcafe), Src: 1, Type: TypeIPv4, Payload: []byte("p")}
	flits, err := f.FrameFlits()
	if err != nil {
		t.Fatal(err)
	}
	if got := DstFromFirstFlit(flits[0]); got != f.Dst {
		t.Errorf("DstFromFirstFlit = %v, want %v", got, f.Dst)
	}
}

func TestFlitCount(t *testing.T) {
	// A 200 Gbit/s link moves one 64-bit flit per 3.2 GHz cycle; a frame of
	// 16+48=64 bytes must take exactly 8 cycles on the wire.
	f := &Frame{Payload: make([]byte, 48)}
	flits, err := f.FrameFlits()
	if err != nil {
		t.Fatal(err)
	}
	if len(flits) != 8 {
		t.Errorf("64-byte frame occupies %d flits, want 8", len(flits))
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	p := &IPv4{Src: IP(0x0a000001), Dst: IP(0x0a000002), Proto: ProtoUDP, TTL: 64, Payload: []byte("data")}
	got, err := ParseIPv4(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*p, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestIPv4Errors(t *testing.T) {
	if _, err := ParseIPv4([]byte{1}); err == nil {
		t.Error("short ipv4 decoded without error")
	}
	p := (&IPv4{Payload: []byte("abc")}).Encode()
	p[10], p[11] = 0xff, 0xff
	if _, err := ParseIPv4(p); err == nil {
		t.Error("ipv4 with bad payload length decoded without error")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	m := &ICMP{Type: ICMPEchoRequest, ID: 7, Seq: 42, SentCycle: 123456789}
	got, err := ParseICMP(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != *m {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
	if _, err := ParseICMP([]byte{1, 2}); err == nil {
		t.Error("short icmp decoded without error")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDP{SrcPort: 11211, DstPort: 4096, Payload: []byte("get key1")}
	got, err := ParseUDP(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*u, got) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, u)
	}
	if _, err := ParseUDP([]byte{1}); err == nil {
		t.Error("short udp decoded without error")
	}
	buf := u.Encode()
	buf[4], buf[5], buf[6], buf[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := ParseUDP(buf); err == nil {
		t.Error("udp with bad payload length decoded without error")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{Op: ARPRequest, SenderMAC: 0x1, SenderIP: 0x0a000001, TargetMAC: 0, TargetIP: 0x0a000002}
	got, err := ParseARP(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != *a {
		t.Errorf("round trip mismatch: %+v vs %+v", got, a)
	}
	if _, err := ParseARP([]byte{0}); err == nil {
		t.Error("short arp decoded without error")
	}
}

func TestNestedEncapsulation(t *testing.T) {
	// Full stack: ICMP inside IPv4 inside a frame inside flits, and back.
	icmp := &ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 2, SentCycle: 99}
	ip := &IPv4{Src: 0x0a000001, Dst: 0x0a000002, Proto: ProtoICMP, TTL: 64, Payload: icmp.Encode()}
	fr := &Frame{Dst: 0xa, Src: 0xb, Type: TypeIPv4, Payload: ip.Encode()}
	flits, err := fr.FrameFlits()
	if err != nil {
		t.Fatal(err)
	}

	fr2, err := ParseFrame(FromFlits(flits))
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := ParseIPv4(fr2.Payload)
	if err != nil {
		t.Fatal(err)
	}
	icmp2, err := ParseICMP(ip2.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if icmp2 != *icmp {
		t.Errorf("nested round trip mismatch: %+v vs %+v", icmp2, icmp)
	}
}
