package soc

import (
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/nic"
	"repro/internal/riscv"
	"repro/internal/switchmodel"
	"repro/internal/token"
)

// tickUntilHalted drives a standalone SoC (no network) until power-off.
func tickUntilHalted(t *testing.T, s *SoC, maxCycles int) {
	t.Helper()
	const step = 256
	in := []*token.Batch{token.NewBatch(step)}
	out := []*token.Batch{token.NewBatch(step)}
	for c := 0; c < maxCycles && !s.Halted(); c += step {
		out[0].Reset(step)
		s.TickBatch(step, in, out)
	}
	if !s.Halted() {
		t.Fatalf("SoC did not power off within %d cycles (pc=%#x)", maxCycles, s.Core(0).PC)
	}
}

func mustSoC(t *testing.T, cfg Config, a *riscv.Asm) *SoC {
	t.Helper()
	prog, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// powerOff emits the store sequence that halts the blade.
func powerOff(a *riscv.Asm) {
	a.LI(riscv.T6, int32(PowerOff))
	a.SD(riscv.Zero, riscv.T6, 0)
}

func TestHelloUART(t *testing.T) {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, UARTBase)
	for _, ch := range "hello\n" {
		a.LI(riscv.T1, int32(ch))
		a.SB(riscv.T1, riscv.T0, 0)
	}
	powerOff(a)
	s := mustSoC(t, Config{Name: "n0", Cores: 1, MAC: 0x1}, a)
	tickUntilHalted(t, s, 100_000)
	if got := s.Console(); got != "hello\n" {
		t.Errorf("console = %q", got)
	}
}

func TestQuadCoreHartsAllRun(t *testing.T) {
	// Every hart stores (hartid+1) to DRAMBase+0x1000+8*hartid; hart 0
	// waits for all then powers off.
	a := riscv.NewAsm()
	a.CSRRS(riscv.A0, riscv.CSRMHartID, riscv.Zero)
	a.LI64(riscv.T0, DRAMBase+0x1000)
	a.SLLI(riscv.T1, riscv.A0, 3)
	a.ADD(riscv.T0, riscv.T0, riscv.T1)
	a.ADDI(riscv.T2, riscv.A0, 1)
	a.SD(riscv.T2, riscv.T0, 0)
	// Non-zero harts spin forever; hart 0 polls for all four values.
	a.BNE(riscv.A0, riscv.Zero, "spin")
	a.LI64(riscv.T0, DRAMBase+0x1000)
	a.Label("poll")
	a.LD(riscv.T1, riscv.T0, 0)
	a.LD(riscv.T2, riscv.T0, 8)
	a.LD(riscv.T3, riscv.T0, 16)
	a.LD(riscv.T4, riscv.T0, 24)
	a.BEQ(riscv.T1, riscv.Zero, "poll")
	a.BEQ(riscv.T2, riscv.Zero, "poll")
	a.BEQ(riscv.T3, riscv.Zero, "poll")
	a.BEQ(riscv.T4, riscv.Zero, "poll")
	powerOff(a)
	a.Label("spin")
	a.J("spin")

	s := mustSoC(t, Config{Name: "n0", Cores: 4, MAC: 0x1}, a)
	tickUntilHalted(t, s, 3_000_000)
	for hart := uint64(0); hart < 4; hart++ {
		if got := s.DRAM().Read64(0x1000 + 8*hart); got != hart+1 {
			t.Errorf("hart %d flag = %d, want %d", hart, got, hart+1)
		}
	}
}

// The paper's caches are write-back: repeated access to the same data must
// be dramatically faster than cold misses.
func TestCacheHierarchyTiming(t *testing.T) {
	sum := func(stride int32) clock.Cycles {
		a := riscv.NewAsm()
		a.LI64(riscv.T0, DRAMBase+0x10000)
		a.LI(riscv.T1, 256) // iterations
		a.LI(riscv.A0, 0)
		a.Label("loop")
		a.LD(riscv.T2, riscv.T0, 0)
		a.ADD(riscv.A0, riscv.A0, riscv.T2)
		a.ADDI(riscv.T0, riscv.T0, stride)
		a.ADDI(riscv.T1, riscv.T1, -1)
		a.BNE(riscv.T1, riscv.Zero, "loop")
		powerOff(a)
		s := mustSoC(t, Config{Name: "n", Cores: 1, MAC: 1}, a)
		tickUntilHalted(t, s, 10_000_000)
		// Round up to the batch granularity used by tickUntilHalted.
		return s.Core(0).Cycle
	}
	same := sum(0)     // same line every time: L1 hits
	strided := sum(64) // new line every time: misses to L2/DRAM
	if float64(strided) < 1.5*float64(same) {
		t.Errorf("strided loop (%d cycles) not clearly slower than L1-resident loop (%d cycles)", strided, same)
	}
}

func TestBlockDeviceBoot(t *testing.T) {
	// Read sector 3 into memory via the controller and check the payload.
	a := riscv.NewAsm()
	a.LI64(riscv.T0, BlockDevBase)
	a.LI64(riscv.T1, DRAMBase+0x2000)
	a.SD(riscv.T1, riscv.T0, blockdev.RegAddr)
	a.LI(riscv.T1, 3)
	a.SD(riscv.T1, riscv.T0, blockdev.RegSector)
	a.LI(riscv.T1, 1)
	a.SD(riscv.T1, riscv.T0, blockdev.RegNSectors)
	a.SD(riscv.Zero, riscv.T0, blockdev.RegWrite)
	a.LD(riscv.A0, riscv.T0, blockdev.RegAlloc)
	a.Label("poll")
	a.LD(riscv.T1, riscv.T0, blockdev.RegNComplete)
	a.BEQ(riscv.T1, riscv.Zero, "poll")
	a.LD(riscv.A1, riscv.T0, blockdev.RegComplete)
	powerOff(a)

	s := mustSoC(t, Config{Name: "n", Cores: 1, MAC: 1}, a)
	s.BlockDev().WriteSector(3, []byte("bootable payload"))
	tickUntilHalted(t, s, 10_000_000)
	buf := make([]byte, 16)
	s.DRAM().ReadBytes(0x2000, buf)
	if string(buf) != "bootable payload" {
		t.Errorf("sector data in memory = %q", buf)
	}
	if s.Core(0).X[riscv.A0] != s.Core(0).X[riscv.A1] {
		t.Errorf("allocation id %d != completion id %d", s.Core(0).X[riscv.A0], s.Core(0).X[riscv.A1])
	}
}

// sendProgram busy-polls a send through the NIC: the frame bytes are
// staged at DRAMBase+0x2000 by the test harness.
func sendProgram(frameLen int) *riscv.Asm {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, NICBase)
	a.LI64(riscv.T1, (DRAMBase+0x2000)|uint64(frameLen)<<48)
	a.SD(riscv.T1, riscv.T0, nic.RegSendReq)
	a.Label("poll")
	a.LD(riscv.T2, riscv.T0, nic.RegCounts)
	a.SRLI(riscv.T2, riscv.T2, 16)
	a.ANDI(riscv.T2, riscv.T2, 0xff)
	a.BEQ(riscv.T2, riscv.Zero, "poll")
	a.LD(riscv.Zero, riscv.T0, nic.RegSendComp)
	powerOff(a)
	return a
}

// recvProgram posts one receive buffer at DRAMBase+0x4000 and waits for a
// packet, storing its length at DRAMBase+0x3000.
func recvProgram() *riscv.Asm {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, NICBase)
	a.LI64(riscv.T1, DRAMBase+0x4000)
	a.SD(riscv.T1, riscv.T0, nic.RegRecvReq)
	a.Label("poll")
	a.LD(riscv.T2, riscv.T0, nic.RegCounts)
	a.SRLI(riscv.T2, riscv.T2, 24)
	a.ANDI(riscv.T2, riscv.T2, 0xff)
	a.BEQ(riscv.T2, riscv.Zero, "poll")
	a.LD(riscv.A0, riscv.T0, nic.RegRecvComp)
	a.LI64(riscv.T3, DRAMBase+0x3000)
	a.SD(riscv.A0, riscv.T3, 0)
	powerOff(a)
	return a
}

// TestBareMetalNetworkRoundTrip is the end-to-end integration test: two
// cycle-exact blades running real RV64 machine code exchange an Ethernet
// frame through a switch model over the token network — the same structure
// as the paper's bare-metal bandwidth test (Section IV-C).
func TestBareMetalNetworkRoundTrip(t *testing.T) {
	const macA, macB = ethernet.MAC(0x0200_0000_0001), ethernet.MAC(0x0200_0000_0002)
	frame := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeIPv4, Payload: []byte("bare-metal hello across the rack")}
	buf, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}

	sender := mustSoC(t, Config{Name: "A", Cores: 1, MAC: macA}, sendProgram(len(buf)))
	sender.DRAM().WriteBytes(0x2000, buf)
	receiver := mustSoC(t, Config{Name: "B", Cores: 1, MAC: macB}, recvProgram())

	tor := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2})
	tor.MACTable().Set(macA, 0)
	tor.MACTable().Set(macB, 1)

	r := fame.NewRunner()
	r.Add(sender)
	r.Add(receiver)
	r.Add(tor)
	const linkLat = 640 // 200 ns at 3.2 GHz
	if err := r.Connect(sender, 0, tor, 0, linkLat); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(receiver, 0, tor, 1, linkLat); err != nil {
		t.Fatal(err)
	}

	for r.Cycle() < 3_000_000 && !(sender.Halted() && receiver.Halted()) {
		if err := r.Run(linkLat * 4); err != nil {
			t.Fatal(err)
		}
	}
	if !sender.Halted() || !receiver.Halted() {
		t.Fatalf("nodes did not finish: sender=%v receiver=%v (recv pc=%#x)", sender.Halted(), receiver.Halted(), receiver.Core(0).PC)
	}

	gotLen := receiver.DRAM().Read64(0x3000)
	if gotLen != uint64(len(buf)) {
		t.Fatalf("received length %d, want %d", gotLen, len(buf))
	}
	rx := make([]byte, gotLen)
	receiver.DRAM().ReadBytes(0x4000, rx)
	got, err := ethernet.ParseFrame(rx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != string(frame.Payload) {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Src != macA || got.Dst != macB {
		t.Errorf("frame header corrupted: %+v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad", Cores: 0}, nil); err == nil {
		t.Error("0-core blade accepted")
	}
	if _, err := New(Config{Name: "bad", Cores: 5}, nil); err == nil {
		t.Error("5-core blade accepted (Table I allows 1-4)")
	}
}

func TestRegisterDevice(t *testing.T) {
	s := mustSoC(t, Config{Name: "n", Cores: 1, MAC: 1}, riscv.NewAsm())
	if err := s.RegisterDevice(NICBase, nil); err == nil {
		t.Error("collision with NIC window accepted")
	}
	dev := &stubDevice{}
	if err := s.RegisterDevice(0x6200_0000, dev); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDevice(0x6200_0000, dev); err == nil {
		t.Error("duplicate registration accepted")
	}
}

type stubDevice struct{}

func (stubDevice) MMIOLoad(clock.Cycles, uint64) uint64   { return 0 }
func (stubDevice) MMIOStore(clock.Cycles, uint64, uint64) {}
func (stubDevice) IntrPending() bool                      { return false }

func TestAcceleratorSlot(t *testing.T) {
	// A Table II-style accelerator: doubles whatever is stored to it.
	a := riscv.NewAsm()
	a.LI64(riscv.T0, 0x6200_0000)
	a.LI(riscv.T1, 21)
	a.SD(riscv.T1, riscv.T0, 0)
	a.LD(riscv.A0, riscv.T0, 0)
	powerOff(a)
	s := mustSoC(t, Config{Name: "n", Cores: 1, MAC: 1}, a)
	if err := s.RegisterDevice(0x6200_0000, &doubler{}); err != nil {
		t.Fatal(err)
	}
	tickUntilHalted(t, s, 100_000)
	if got := s.Core(0).X[riscv.A0]; got != 42 {
		t.Errorf("accelerator result = %d, want 42", got)
	}
}

type doubler struct{ v uint64 }

func (d *doubler) MMIOLoad(_ clock.Cycles, off uint64) uint64     { return d.v }
func (d *doubler) MMIOStore(_ clock.Cycles, off uint64, v uint64) { d.v = v * 2 }
func (d *doubler) IntrPending() bool                              { return false }

func TestConsoleOrdering(t *testing.T) {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, UARTBase)
	for _, ch := range "abc" {
		a.LI(riscv.T1, int32(ch))
		a.SB(riscv.T1, riscv.T0, 0)
	}
	powerOff(a)
	s := mustSoC(t, Config{Name: "n", Cores: 1, MAC: 1}, a)
	tickUntilHalted(t, s, 100_000)
	if !strings.HasPrefix(s.Console(), "abc") {
		t.Errorf("console = %q", s.Console())
	}
}
