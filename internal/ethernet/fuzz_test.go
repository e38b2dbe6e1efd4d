package ethernet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseFrame feeds arbitrary bytes through every parser layer: nothing
// may panic, an accepted frame must re-encode to the bytes it was parsed
// from, and any buffer must survive the flit round trip.
func FuzzParseFrame(f *testing.F) {
	echo := func(typ ICMPType) []byte {
		icmp := (&ICMP{Type: typ, ID: 7, Seq: 3, SentCycle: 99}).Encode()
		ip := (&IPv4{Src: 1, Dst: 2, Proto: ProtoICMP, TTL: 64, Payload: icmp}).Encode()
		buf, _ := (&Frame{Dst: 0x22, Src: 0x11, Type: TypeIPv4, Payload: ip}).Encode()
		return buf
	}
	full := echo(ICMPEchoRequest)
	f.Add(full)
	f.Add(full[:HeaderLen-1]) // truncated header
	short := append([]byte(nil), full...)
	binary.BigEndian.PutUint16(short, HeaderLen-1) // length field < HeaderLen
	f.Add(short)
	long := append([]byte(nil), full...)
	binary.BigEndian.PutUint16(long, uint16(len(full)+1)) // length field > buffer
	f.Add(long)
	overrun := append([]byte(nil), full...)
	binary.BigEndian.PutUint16(overrun[HeaderLen+10:], 0xffff) // IPv4 plen overrun
	f.Add(overrun)
	shortICMP := append([]byte(nil), full...)
	binary.BigEndian.PutUint16(shortICMP[HeaderLen+10:], ICMPLen-1) // short ICMP
	binary.BigEndian.PutUint16(shortICMP, uint16(len(full)-1))
	f.Add(shortICMP[:len(full)-1])
	f.Add(echo(ICMPEchoReply))
	udp := (&UDP{SrcPort: 5, DstPort: 9, Payload: []byte("hello")}).Encode()
	ip := (&IPv4{Src: 1, Dst: 2, Proto: ProtoUDP, TTL: 64, Payload: udp}).Encode()
	buf, _ := (&Frame{Dst: 0x22, Src: 0x11, Type: TypeIPv4, Payload: ip}).Encode()
	f.Add(buf)
	arp, _ := (&Frame{Dst: Broadcast, Src: 0x11, Type: TypeARP, Payload: (&ARP{Op: ARPRequest, SenderMAC: 0x11, SenderIP: 1, TargetIP: 2}).Encode()}).Encode()
	f.Add(arp)

	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, err := ParseFrame(buf)
		body := buf // parse the inner layers from the raw bytes when the frame fails
		if err == nil {
			enc, err := fr.Encode()
			if err != nil || !bytes.Equal(enc, buf[:HeaderLen+len(fr.Payload)]) {
				t.Fatalf("re-encode = %x, %v; parsed from %x", enc, err, buf)
			}
			body = fr.Payload
		}

		if ip, err := ParseIPv4(body); err == nil {
			body = ip.Payload
		}
		ParseICMP(body)
		ParseUDP(body)
		ParseARP(body)

		flits := ToFlits(buf)
		if back := FromFlits(flits); len(back) < len(buf) || !bytes.Equal(back[:len(buf)], buf) {
			t.Fatalf("flit round trip of %x gave %x", buf, back)
		}
	})
}
