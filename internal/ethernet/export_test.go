package ethernet

// Copying encoders that only this package's tests use; the stack builds
// packets in place with the Append* forms.

// Encode serialises the packet (layout: AppendIPv4Header).
func (p *IPv4) Encode() []byte {
	buf := AppendIPv4Header(make([]byte, 0, IPv4HeaderLen+len(p.Payload)), p.Src, p.Dst, p.Proto, p.TTL, len(p.Payload))
	return append(buf, p.Payload...)
}

// Encode serialises the message.
func (m *ICMP) Encode() []byte { return m.Append(make([]byte, 0, ICMPLen)) }

// Encode serialises the datagram.
func (u *UDP) Encode() []byte {
	buf := AppendUDPHeader(make([]byte, 0, UDPHeaderLen+len(u.Payload)), u.SrcPort, u.DstPort, len(u.Payload))
	return append(buf, u.Payload...)
}

// Encode serialises the message.
func (a *ARP) Encode() []byte { return a.Append(make([]byte, 0, ARPLen)) }
