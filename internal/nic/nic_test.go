package nic

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/token"
)

// fakeMem is a flat DMA target with fixed per-transfer latency.
type fakeMem struct {
	mem     []byte
	latency clock.Cycles
}

func newFakeMem() *fakeMem { return &fakeMem{mem: make([]byte, 1<<20), latency: 50} }

func (m *fakeMem) ReadDMA(now clock.Cycles, addr uint64, buf []byte) clock.Cycles {
	copy(buf, m.mem[addr:])
	return now + m.latency
}

func (m *fakeMem) WriteDMA(now clock.Cycles, addr uint64, data []byte) clock.Cycles {
	copy(m.mem[addr:], data)
	return now + m.latency
}

// runTicks advances the NIC for cycles, feeding empty input tokens, and
// returns all valid output tokens with their cycles.
func runTicks(n *NIC, start clock.Cycles, cycles int) (out []token.Token, cyclesAt []clock.Cycles) {
	for i := 0; i < cycles; i++ {
		now := start + clock.Cycles(i)
		tok := n.Tick(now, token.Empty)
		if tok.Valid {
			out = append(out, tok)
			cyclesAt = append(cyclesAt, now)
		}
	}
	return out, cyclesAt
}

func TestSendPath(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xaa), mem)
	payload := []byte("0123456789abcdef01234567") // 24 bytes = 3 flits
	copy(mem.mem[0x1000:], payload)
	n.MMIOStore(RegSendReq, 0x1000|uint64(len(payload))<<48)

	out, at := runTicks(n, 0, 200)
	if len(out) != 3 {
		t.Fatalf("sent %d flits, want 3", len(out))
	}
	// Data must not flow before the DMA completes (latency 50).
	if at[0] < mem.latency {
		t.Errorf("first flit at cycle %d, before DMA completion %d", at[0], mem.latency)
	}
	// Flits must be contiguous and the final one marked Last.
	if at[2] != at[0]+2 {
		t.Errorf("flits not contiguous: %v", at)
	}
	if !out[2].Last || out[0].Last || out[1].Last {
		t.Errorf("Last flags wrong: %v %v %v", out[0].Last, out[1].Last, out[2].Last)
	}
	if got := ethernet.FromFlits([]uint64{out[0].Data, out[1].Data, out[2].Data}); !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
	// A send completion must be queued.
	if n.MMIOLoad(RegSendComp) != 1 {
		t.Error("no send completion")
	}
	if st := n.Stats(); st.PacketsSent != 1 || st.FlitsSent != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAlignerUnalignedSend(t *testing.T) {
	// Packet starting at a non-8-byte-aligned address: the aligner must
	// shift so that the first byte delivered is the packet's first byte.
	mem := newFakeMem()
	n := New(DefaultConfig(0xaa), mem)
	copy(mem.mem[0x1000:], "XXXhello, unaligned world!!!")
	const addr, plen = 0x1003, 22 // "hello, unaligned world"
	n.MMIOStore(RegSendReq, addr|uint64(plen)<<48)

	out, _ := runTicks(n, 0, 200)
	var flits []uint64
	for _, tok := range out {
		flits = append(flits, tok.Data)
	}
	got := ethernet.FromFlits(flits)[:plen]
	if string(got) != "hello, unaligned world" {
		t.Errorf("aligner output = %q", got)
	}
}

func TestRateLimiterHalvesBandwidth(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xaa), mem)
	n.SetRateLimit(1, 2) // k/p = 1/2 rate
	const plen = 800     // 100 flits
	n.MMIOStore(RegSendReq, 0x0|uint64(plen)<<48)

	out, at := runTicks(n, 0, 1000)
	if len(out) != 100 {
		t.Fatalf("sent %d flits, want 100", len(out))
	}
	span := at[len(at)-1] - at[0]
	// At half rate, 100 flits should take ~200 cycles (within bucket-depth
	// slack), not ~100 at line rate.
	if span < 175 || span > 225 {
		t.Errorf("100 flits took %d cycles at 1/2 rate, want ~200", span)
	}
}

func TestRateLimiterBackpressures(t *testing.T) {
	// Internal throttling: the NIC must still send *all* flits, just
	// slower — nothing is lost, unlike external request dropping.
	mem := newFakeMem()
	n := New(DefaultConfig(0xaa), mem)
	n.SetRateLimit(1, 10)
	const plen = 160 // 20 flits
	n.MMIOStore(RegSendReq, 0x0|uint64(plen)<<48)
	out, _ := runTicks(n, 0, 400)
	if len(out) != 20 {
		t.Errorf("sent %d flits, want all 20", len(out))
	}
}

func TestReceivePath(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xbb), mem)
	n.MMIOStore(RegRecvReq, 0x2000)

	payload := []byte("received packet payload!") // 24 bytes = 3 flits
	flits := ethernet.ToFlits(payload)
	now := clock.Cycles(0)
	for i, f := range flits {
		n.Tick(now, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
		now++
	}
	// Allow the writer DMA to finish.
	for i := 0; i < 100; i++ {
		n.Tick(now, token.Empty)
		now++
	}
	if got := n.MMIOLoad(RegRecvComp); got != uint64(len(payload)) {
		t.Errorf("recv completion length = %d, want %d", got, len(payload))
	}
	if !bytes.Equal(mem.mem[0x2000:0x2000+len(payload)], payload) {
		t.Errorf("DMA'd payload = %q", mem.mem[0x2000:0x2000+len(payload)])
	}
	if st := n.Stats(); st.PacketsRecv != 1 || st.FlitsRecv != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPacketBufferDropsWholePackets(t *testing.T) {
	mem := newFakeMem()
	cfg := DefaultConfig(0xbb)
	cfg.PacketBufBytes = 40 // fits one 24-byte packet, not two
	n := New(cfg, mem)
	// No receive buffers posted, so packets pile up in the packet buffer.
	payload := make([]byte, 24)
	flits := ethernet.ToFlits(payload)
	now := clock.Cycles(0)
	for pkt := 0; pkt < 2; pkt++ {
		for i, f := range flits {
			n.Tick(now, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
			now++
		}
	}
	st := n.Stats()
	if st.RecvDropped != 1 {
		t.Errorf("RecvDropped = %d, want 1 (drop at full-packet granularity)", st.RecvDropped)
	}
	// The first packet must still be intact and deliverable.
	n.MMIOStore(RegRecvReq, 0x3000)
	for i := 0; i < 100; i++ {
		n.Tick(now, token.Empty)
		now++
	}
	if n.Stats().PacketsRecv != 1 {
		t.Error("surviving packet not delivered")
	}
}

func TestInterrupts(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xbb), mem)
	if n.IntrPending() {
		t.Error("fresh NIC asserts interrupt")
	}
	// Receive a packet with recv interrupts masked off: no interrupt.
	n.MMIOStore(RegRecvReq, 0x2000)
	flits := ethernet.ToFlits(make([]byte, 16))
	now := clock.Cycles(0)
	for i, f := range flits {
		n.Tick(now, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
		now++
	}
	for i := 0; i < 100; i++ {
		n.Tick(now, token.Empty)
		now++
	}
	if n.IntrPending() {
		t.Error("interrupt asserted while masked")
	}
	n.MMIOStore(RegIntrMask, IntrRecv)
	if !n.IntrPending() {
		t.Error("interrupt not asserted with completion pending and unmasked")
	}
	// Popping the completion clears the interrupt.
	n.MMIOLoad(RegRecvComp)
	if n.IntrPending() {
		t.Error("interrupt still asserted after completion drained")
	}
}

func TestCountsRegister(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xbb), mem)
	sendFree, recvFree, sendComp, recvComp := CountsOf(n.MMIOLoad(RegCounts))
	if sendFree != sendReqQueueCap || recvFree != recvReqQueueCap || sendComp != 0 || recvComp != 0 {
		t.Errorf("fresh counts = %d %d %d %d", sendFree, recvFree, sendComp, recvComp)
	}
	n.MMIOStore(RegSendReq, 0x0|8<<48)
	n.MMIOStore(RegRecvReq, 0x100)
	sendFree, recvFree, _, _ = CountsOf(n.MMIOLoad(RegCounts))
	if sendFree != sendReqQueueCap-1 || recvFree != recvReqQueueCap-1 {
		t.Errorf("counts after enqueue = %d %d", sendFree, recvFree)
	}
}

func TestSendQueueOverflowRejected(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xbb), mem)
	for i := 0; i < sendReqQueueCap+3; i++ {
		n.MMIOStore(RegSendReq, 0x0|8<<48)
	}
	if st := n.Stats(); st.SendRejected != 3 {
		t.Errorf("SendRejected = %d, want 3", st.SendRejected)
	}
}

func TestMACRegister(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0x0200_0000_0001), mem)
	if got := n.MMIOLoad(RegMACAddr); got != 0x0200_0000_0001 {
		t.Errorf("MAC register = %#x", got)
	}
}

func TestRateLimitViaMMIO(t *testing.T) {
	mem := newFakeMem()
	n := New(DefaultConfig(0xbb), mem)
	n.MMIOStore(RegRateLim, uint64(3)|uint64(7)<<32)
	if n.rateK != 3 || n.rateP != 7 {
		t.Errorf("MMIO rate limit = %d/%d, want 3/7", n.rateK, n.rateP)
	}
}

func TestLoopbackTwoNICs(t *testing.T) {
	// Wire NIC A's output directly to NIC B's input (zero-latency wire)
	// and push a full frame through MMIO send -> token stream -> MMIO
	// receive.
	memA, memB := newFakeMem(), newFakeMem()
	a := New(DefaultConfig(0x1), memA)
	b := New(DefaultConfig(0x2), memB)

	frame := &ethernet.Frame{Dst: 0x2, Src: 0x1, Type: ethernet.TypeIPv4, Payload: []byte("ping across the wire")}
	buf, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	copy(memA.mem[0x1000:], buf)
	a.MMIOStore(RegSendReq, 0x1000|uint64(len(buf))<<48)
	b.MMIOStore(RegRecvReq, 0x4000)

	for i := clock.Cycles(0); i < 500; i++ {
		tok := a.Tick(i, token.Empty)
		b.Tick(i, tok)
	}
	gotLen := b.MMIOLoad(RegRecvComp)
	if gotLen == 0 {
		t.Fatal("no packet received")
	}
	got, err := ethernet.ParseFrame(memB.mem[0x4000 : 0x4000+gotLen])
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "ping across the wire" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Dst != 0x2 || got.Src != 0x1 {
		t.Errorf("frame header = %+v", got)
	}
}

// TestLoopbackProperty pushes random-size random-content frames through
// an NIC-to-NIC wire and checks bit-exact delivery, send completions, and
// flit accounting, for arbitrary (unaligned) source addresses.
func TestLoopbackProperty(t *testing.T) {
	check := func(seed uint64, sizeRaw uint16, misalign uint8) bool {
		memA, memB := newFakeMem(), newFakeMem()
		a := New(DefaultConfig(0x1), memA)
		b := New(DefaultConfig(0x2), memB)

		size := int(sizeRaw)%2000 + ethernet.HeaderLen
		payload := make([]byte, size-ethernet.HeaderLen)
		rng := seed
		for i := range payload {
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			payload[i] = byte(rng * 2685821657736338717)
		}
		frame := &ethernet.Frame{Dst: 0x2, Src: 0x1, Type: ethernet.TypeIPv4, Payload: payload}
		buf, err := frame.Encode()
		if err != nil {
			return false
		}
		addr := 0x1000 + uint64(misalign%8)
		copy(memA.mem[addr:], buf)
		a.MMIOStore(RegSendReq, addr|uint64(len(buf))<<48)
		b.MMIOStore(RegRecvReq, 0x4000)

		for i := clock.Cycles(0); i < 3000; i++ {
			b.Tick(i, a.Tick(i, token.Empty))
		}
		gotLen := b.MMIOLoad(RegRecvComp)
		// The wire carries whole 64-bit flits, so the delivered length is
		// the flit-padded frame length; the frame's own length field
		// recovers the exact byte count.
		if int(gotLen) != (len(buf)+7)/8*8 {
			return false
		}
		got, err := ethernet.ParseFrame(memB.mem[0x4000 : 0x4000+gotLen])
		if err != nil {
			return false
		}
		if !bytes.Equal(got.Payload, payload) || got.Dst != 0x2 || got.Src != 0x1 {
			return false
		}
		return a.MMIOLoad(RegSendComp) == 1 &&
			a.Stats().FlitsSent == b.Stats().FlitsRecv
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
