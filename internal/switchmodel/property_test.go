package switchmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/token"
)

// TestDeliveryProperty: for random packet programs on a 4-port switch with
// generous buffers, every unicast packet to a known MAC is delivered
// exactly once, in per-flow FIFO order, with all flits intact and the
// release time respecting arrival + switching latency.
func TestDeliveryProperty(t *testing.T) {
	type pkt struct {
		in      int
		dst     ethernet.MAC
		payload byte
		size    int // payload bytes
	}
	check := func(seed uint64, nRaw uint8) bool {
		rng := seed
		next := func(n uint64) uint64 {
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			return (rng * 2685821657736338717) % n
		}
		sw := New(Config{Name: "sw", Ports: 4, SwitchingLatency: 10})
		macs := []ethernet.MAC{0xa0, 0xa1, 0xa2, 0xa3}
		for p, m := range macs {
			sw.MACTable().Set(m, p)
		}

		// Build input batches: each port gets a sequence of back-to-back
		// packets with random destinations.
		nPkts := int(nRaw%12) + 1
		var sent []pkt
		perPort := map[int][]pkt{}
		for i := 0; i < nPkts; i++ {
			p := pkt{
				in:      int(next(4)),
				dst:     macs[next(4)],
				payload: byte(next(250)) + 1,
				size:    int(next(200)) + 1,
			}
			if macs[p.in] == p.dst {
				continue // reflections are dropped by design; skip
			}
			sent = append(sent, p)
			perPort[p.in] = append(perPort[p.in], p)
		}

		const n = 4096
		in := make([]*token.Batch, 4)
		out := make([]*token.Batch, 4)
		for p := 0; p < 4; p++ {
			in[p] = token.NewBatch(n)
			off := 0
			for _, k := range perPort[p] {
				fr := &ethernet.Frame{Dst: k.dst, Src: macs[k.in], Type: ethernet.TypeIPv4}
				fr.Payload = make([]byte, k.size)
				for i := range fr.Payload {
					fr.Payload[i] = k.payload
				}
				flits, err := fr.FrameFlits()
				if err != nil {
					return false
				}
				for i, f := range flits {
					in[p].Put(off+i, token.Token{Data: f, Valid: true, Last: i == len(flits)-1})
				}
				off += len(flits) + int(next(8))
			}
			out[p] = token.NewBatch(n)
		}
		sw.TickBatch(n, in, out)
		// Drain remaining egress with empty input.
		empty := make([]*token.Batch, 4)
		more := make([]*token.Batch, 4)
		for p := range empty {
			empty[p] = token.NewBatch(n)
			more[p] = token.NewBatch(n)
		}
		sw.TickBatch(n, empty, more)

		// Reassemble per output port and verify against expectations.
		type rx struct {
			src ethernet.MAC
			pay byte
			len int
		}
		got := map[int][]rx{}
		for p := 0; p < 4; p++ {
			var cur []uint64
			collect := func(b *token.Batch) bool {
				ok := true
				b.Each(func(_ int, tok token.Token) {
					cur = append(cur, tok.Data)
					if tok.Last && ok {
						fr, err := ethernet.ParseFrame(ethernet.FromFlits(cur))
						cur = nil
						if err != nil {
							ok = false
							return
						}
						pay := byte(0)
						if len(fr.Payload) > 0 {
							pay = fr.Payload[0]
						}
						got[p] = append(got[p], rx{src: fr.Src, pay: pay, len: len(fr.Payload)})
					}
				})
				return ok
			}
			if !collect(out[p]) || !collect(more[p]) {
				return false
			}
		}
		// Every sent packet appears exactly once at its destination port,
		// and per (src,dst) pair order is preserved.
		want := map[int][]pkt{}
		for _, k := range sent {
			dstPort := int(k.dst - 0xa0)
			want[dstPort] = append(want[dstPort], k)
		}
		total := 0
		for p := 0; p < 4; p++ {
			total += len(got[p])
			// Check multiset + per-source order.
			perSrc := map[ethernet.MAC][]rx{}
			for _, g := range got[p] {
				perSrc[g.src] = append(perSrc[g.src], g)
			}
			wantPerSrc := map[ethernet.MAC][]pkt{}
			for _, k := range want[p] {
				wantPerSrc[macs[k.in]] = append(wantPerSrc[macs[k.in]], k)
			}
			for src, ws := range wantPerSrc {
				gs := perSrc[src]
				if len(gs) != len(ws) {
					return false
				}
				for i := range ws {
					if gs[i].pay != ws[i].payload || gs[i].len != ws[i].size {
						return false
					}
				}
			}
		}
		if total != len(sent) {
			return false
		}
		if sw.Stats().DropsBufFull != 0 || sw.Stats().DropsStale != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
