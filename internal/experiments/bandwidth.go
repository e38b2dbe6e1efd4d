package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/manager"
	"repro/internal/nic"
	"repro/internal/riscv"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/switchmodel"
)

func init() {
	register("iperf", func(sc Scale) (Result, error) { return Iperf(sc) })
	register("baremetal", func(sc Scale) (Result, error) { return BareMetal(sc) })
}

// IperfResult is the Section IV-B measurement.
type IperfResult struct {
	// GoodputGbps is the TCP-style stream goodput over Linux.
	GoodputGbps float64
}

// Title implements Result.
func (IperfResult) Title() string { return "Section IV-B: iperf3 on Linux" }

// Render implements Result.
func (r IperfResult) Render() string {
	return fmt.Sprintf("iperf3 goodput over modeled Linux stack: %.2f Gbit/s\n"+
		"Paper reference: 1.4 Gbit/s (software-stack-limited on a 200 Gbit/s link).\n", r.GoodputGbps)
}

// Iperf measures stream goodput between two nodes on one ToR switch.
func Iperf(sc Scale) (IperfResult, error) {
	dur := clock.Cycles(64_000_000) // 20 ms
	if sc.Quick {
		dur = 16_000_000
	}
	c, err := manager.Deploy(manager.Rack("tor0", 2, manager.QuadCore), manager.DeployConfig{})
	if err != nil {
		return IperfResult{}, err
	}
	srv := apps.NewIperfServer(c.Servers[1])
	apps.NewIperfClient(c.Servers[0], c.Servers[1].IP(), 0, dur)
	if err := c.RunFor(dur + 1_000_000); err != nil {
		return IperfResult{}, err
	}
	return IperfResult{GoodputGbps: srv.GoodputGbps()}, nil
}

// BareMetalResult is the Section IV-C measurement.
type BareMetalResult struct {
	// WireGbps is the bandwidth a single NIC drove onto the network.
	WireGbps float64
	// PacketsReceived verifies the receiver actually consumed the stream.
	PacketsReceived uint64
}

// Title implements Result.
func (BareMetalResult) Title() string { return "Section IV-C: bare-metal node-to-node bandwidth" }

// Render implements Result.
func (r BareMetalResult) Render() string {
	return fmt.Sprintf("bare-metal single-NIC bandwidth: %.1f Gbit/s (%d packets)\n"+
		"Paper reference: ~100 Gbit/s from one NIC, confirming the Linux stack (1.4 Gbit/s) is the bottleneck.\n",
		r.WireGbps, r.PacketsReceived)
}

// bareMetalSender builds the RV64 program that drives the NIC at maximum
// rate: enqueue the same packet whenever the send queue has space, npkts
// times, then power off.
func bareMetalSender(pktAddr uint64, pktLen, ringSlots, npkts int) *riscv.Asm {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, soc.NICBase)
	a.LI64(riscv.T1, pktAddr|uint64(pktLen)<<48)
	a.MV(riscv.S0, riscv.T1)         // ring base descriptor
	a.LI(riscv.S1, int32(ringSlots)) // slots until wrap
	a.MV(riscv.S2, riscv.S1)         // countdown
	a.LI(riscv.S3, int32(pktLen))    // descriptor stride
	a.LI(riscv.T2, int32(npkts))     // sends remaining
	a.LI(riscv.T4, int32(npkts))     // completions remaining
	// Main loop: drain a completion if one is pending (the completion
	// queue is only 16 deep, so it must be serviced while sending), then
	// enqueue a send if a request slot is free.
	a.Label("loop")
	a.LD(riscv.T3, riscv.T0, nic.RegCounts)
	a.SRLI(riscv.T5, riscv.T3, 16)
	a.ANDI(riscv.T5, riscv.T5, 0xff)
	a.BEQ(riscv.T5, riscv.Zero, "trysend")
	a.LD(riscv.Zero, riscv.T0, nic.RegSendComp)
	a.ADDI(riscv.T4, riscv.T4, -1)
	a.Label("trysend")
	a.BEQ(riscv.T2, riscv.Zero, "checkdone")
	a.ANDI(riscv.T5, riscv.T3, 0xff) // free send-request slots
	a.BEQ(riscv.T5, riscv.Zero, "checkdone")
	a.SD(riscv.T1, riscv.T0, nic.RegSendReq)
	a.ADDI(riscv.T2, riscv.T2, -1)
	// Advance around the packet ring: the ring exceeds the L2 capacity so
	// the reader's DMA streams from DRAM, like the paper's "sequence of
	// Ethernet packets".
	a.ADDI(riscv.S2, riscv.S2, -1)
	a.ADD(riscv.T1, riscv.T1, riscv.S3)
	a.BNE(riscv.S2, riscv.Zero, "checkdone")
	a.MV(riscv.T1, riscv.S0)
	a.MV(riscv.S2, riscv.S1)
	a.Label("checkdone")
	a.BNE(riscv.T2, riscv.Zero, "loop")
	a.BNE(riscv.T4, riscv.Zero, "loop")
	a.LI(riscv.T6, int32(soc.PowerOff))
	a.SD(riscv.Zero, riscv.T6, 0)
	return a
}

// BareMetal runs the RTL-level bandwidth test: a cycle-exact sender blade
// drives maximum-rate traffic through the token network; the wire rate is
// measured at the switch. The DDR3 streaming bandwidth (12.8 GB/s =
// ~102 Gbit/s) is the physical bottleneck, reproducing the paper's
// ~100 Gbit/s result.
func BareMetal(sc Scale) (BareMetalResult, error) {
	const pktLen = 4096
	// The packet ring spans 512 KiB — twice the L2 — so the NIC reader
	// streams from DRAM like the paper's test.
	const ringSlots = 128
	npkts := 512
	if sc.Quick {
		npkts = 192
	}

	frame := &ethernet.Frame{
		Dst: 0x0200_0000_0002, Src: 0x0200_0000_0001,
		Type: ethernet.TypeIPv4, Payload: make([]byte, pktLen-ethernet.HeaderLen),
	}
	buf, err := frame.Encode()
	if err != nil {
		return BareMetalResult{}, err
	}

	prog, err := bareMetalSender(soc.DRAMBase+0x10000, len(buf), ringSlots, npkts).Bytes()
	if err != nil {
		return BareMetalResult{}, err
	}
	sender, err := soc.New(soc.Config{Name: "sender", Cores: 1, MAC: 0x0200_0000_0001}, prog)
	if err != nil {
		return BareMetalResult{}, err
	}
	for s := 0; s < ringSlots; s++ {
		sender.DRAM().WriteBytes(0x10000+uint64(s*pktLen), buf)
	}

	sink := fame.NewSink("recv")
	sw := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2})
	sw.MACTable().Set(0x0200_0000_0001, 0)
	sw.MACTable().Set(0x0200_0000_0002, 1)

	r := fame.NewRunner()
	r.Add(sender)
	r.Add(sink)
	r.Add(sw)
	const linkLat = 640
	if err := r.Connect(sender, 0, sw, 0, linkLat); err != nil {
		return BareMetalResult{}, err
	}
	if err := r.Connect(sw, 1, sink, 0, linkLat); err != nil {
		return BareMetalResult{}, err
	}

	for !sender.Halted() && r.Cycle() < 100_000_000 {
		if err := r.Run(linkLat * 16); err != nil {
			return BareMetalResult{}, err
		}
	}
	if !sender.Halted() {
		return BareMetalResult{}, fmt.Errorf("baremetal: sender did not finish (pc=%#x)", sender.Core(0).PC)
	}

	// Wire rate: bytes received over the active window (first to last
	// flit at the sink).
	if len(sink.Received) == 0 {
		return BareMetalResult{}, fmt.Errorf("baremetal: no flits received")
	}
	packets := uint64(0)
	for _, arr := range sink.Received {
		if arr.Tok.Last {
			packets++
		}
	}
	span := sink.Received[len(sink.Received)-1].Cycle - sink.Received[0].Cycle + 1
	bits := float64(len(sink.Received)) * 64
	gbps := bits / (float64(span) / 3.2e9) / 1e9
	return BareMetalResult{WireGbps: gbps, PacketsReceived: packets}, nil
}

// BandwidthComparison renders both results side by side, the paper's
// headline contrast.
func BandwidthComparison(sc Scale) (Result, error) {
	ip, err := Iperf(sc)
	if err != nil {
		return nil, err
	}
	bm, err := BareMetal(sc)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Test", "Bandwidth (Gbit/s)", "Paper")
	t.AddRow("iperf3 over Linux", ip.GoodputGbps, "1.4")
	t.AddRow("bare-metal NIC", bm.WireGbps, "~100")
	var b strings.Builder
	b.WriteString(t.String())
	return textResult{"Sections IV-B/IV-C: bandwidth", b.String()}, nil
}

func init() {
	register("bandwidth", BandwidthComparison)
}
