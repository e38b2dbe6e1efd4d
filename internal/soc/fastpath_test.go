package soc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/faults"
	"repro/internal/nic"
	"repro/internal/riscv"
	"repro/internal/snapshot"
	"repro/internal/switchmodel"
)

// The tests in this file pin down the fast-path contract from the issue:
// with the predecode cache, fetch memo and quiescent skip forced off vs
// on, runs must produce bit-identical checkpoint streams — under the
// sequential and parallel schedulers, with fault injection, and across a
// mid-run checkpoint/restore that crosses fast-path settings.

func setFastPaths(s *SoC, on bool) {
	s.SetQuiescentSkip(on)
	s.SetFetchMemo(on)
	s.SetDecodeCache(on)
}

// rack is a directly-wired fame topology of SoC blades behind one switch
// (manager clusters deploy softstack nodes, not blades, so the acceptance
// test builds its own).
type rack struct {
	r    *fame.Runner
	socs []*SoC
	tor  *switchmodel.Switch
}

// saveRack checkpoints runner, blades and switch into one stream, in a
// fixed order so streams from different runs are byte-comparable.
func saveRack(t *testing.T, rk *rack) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{Cycle: uint64(rk.r.Cycle())})
	if err != nil {
		t.Fatal(err)
	}
	w.Section("runner")
	if err := rk.r.Save(w); err != nil {
		t.Fatal(err)
	}
	for _, s := range rk.socs {
		w.Section("node/" + s.Name())
		if err := s.Save(w); err != nil {
			t.Fatal(err)
		}
	}
	w.Section("switch/" + rk.tor.Name())
	if err := rk.tor.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreRack loads a saveRack stream into a freshly built rack.
func restoreRack(t *testing.T, rk *rack, data []byte) {
	t.Helper()
	r, _, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*SoC, len(rk.socs))
	for _, s := range rk.socs {
		byName["node/"+s.Name()] = s
	}
	for {
		name, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case name == "runner":
			err = rk.r.Restore(r)
		case name == "switch/"+rk.tor.Name():
			err = rk.tor.Restore(r)
		case byName[name] != nil:
			err = byName[name].Restore(r)
		default:
			t.Fatalf("checkpoint section %q has no home", name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// delaySendProgram burns roughly 3*delay cycles in a countdown loop, then
// pushes one staged frame through the NIC and powers off.
func delaySendProgram(frameLen int, delay int32) *riscv.Asm {
	a := riscv.NewAsm()
	a.LI(riscv.S0, delay)
	a.Label("delay")
	a.ADDI(riscv.S0, riscv.S0, -1)
	a.BNE(riscv.S0, riscv.Zero, "delay")
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

// wfiRecvProgram posts one receive buffer, unmasks the receive-completion
// interrupt and sleeps in WFI instead of busy-polling — the idle shape the
// quiescent skip is built for. On wake it records the frame length at
// DRAMBase+0x3000 and powers off.
func wfiRecvProgram() *riscv.Asm {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, NICBase)
	a.LI64(riscv.T1, DRAMBase+0x4000)
	a.SD(riscv.T1, riscv.T0, nic.RegRecvReq)
	a.LI(riscv.T1, nic.IntrRecv)
	a.SD(riscv.T1, riscv.T0, nic.RegIntrMask)
	a.Label("wait")
	a.WFI()
	a.LD(riscv.T2, riscv.T0, nic.RegCounts)
	a.SRLI(riscv.T2, riscv.T2, 24)
	a.ANDI(riscv.T2, riscv.T2, 0xff)
	a.BEQ(riscv.T2, riscv.Zero, "wait")
	a.LD(riscv.A0, riscv.T0, nic.RegRecvComp)
	a.LI64(riscv.T3, DRAMBase+0x3000)
	a.SD(riscv.A0, riscv.T3, 0)
	powerOff(a)
	return a
}

// wfiRecvLoopProgram is the forever variant: re-post a buffer, WFI until a
// frame lands, count it in S1, repeat. Never halts; used by the cluster
// test where fault injection may drop any given frame.
func wfiRecvLoopProgram() *riscv.Asm {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, NICBase)
	a.LI(riscv.T1, nic.IntrRecv)
	a.SD(riscv.T1, riscv.T0, nic.RegIntrMask)
	a.LI(riscv.S1, 0)
	a.Label("loop")
	a.LI64(riscv.T1, DRAMBase+0x4000)
	a.SD(riscv.T1, riscv.T0, nic.RegRecvReq)
	a.Label("wait")
	a.WFI()
	a.LD(riscv.T2, riscv.T0, nic.RegCounts)
	a.SRLI(riscv.T2, riscv.T2, 24)
	a.ANDI(riscv.T2, riscv.T2, 0xff)
	a.BEQ(riscv.T2, riscv.Zero, "wait")
	a.LD(riscv.A0, riscv.T0, nic.RegRecvComp)
	a.ADDI(riscv.S1, riscv.S1, 1)
	a.J("loop")
	return a
}

const fpLinkLat = 640

// buildPair wires a delayed sender and a WFI receiver through a 2-port
// switch.
func buildPair(t *testing.T, fast bool) *rack {
	t.Helper()
	const macA, macB = ethernet.MAC(0x0200_0000_0001), ethernet.MAC(0x0200_0000_0002)
	frame := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeIPv4, Payload: []byte("wfi wakeup payload")}
	buf, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sender := mustSoC(t, Config{Name: "A", Cores: 1, MAC: macA}, delaySendProgram(len(buf), 20_000))
	sender.DRAM().WriteBytes(0x2000, buf)
	receiver := mustSoC(t, Config{Name: "B", Cores: 1, MAC: macB}, wfiRecvProgram())
	tor := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2})
	tor.MACTable().Set(macA, 0)
	tor.MACTable().Set(macB, 1)
	r := fame.NewRunner()
	r.Add(sender)
	r.Add(receiver)
	r.Add(tor)
	if err := r.Connect(sender, 0, tor, 0, fpLinkLat); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(receiver, 0, tor, 1, fpLinkLat); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*SoC{sender, receiver} {
		setFastPaths(s, fast)
	}
	return &rack{r: r, socs: []*SoC{sender, receiver}, tor: tor}
}

// TestWFIReceiverSkipEquivalence runs the WFI-heavy two-node exchange with
// fast paths on and off on a fixed batch schedule, comparing the complete
// checkpoint stream at a mid-run boundary (taken while the fast run is
// inside its skip window) and at the end, and then restores the fast run's
// mid-run checkpoint into a slow-path rack and checks it converges to the
// same final state.
func TestWFIReceiverSkipEquivalence(t *testing.T) {
	const (
		chunk    = fpLinkLat * 4
		midChunk = 10
		nChunks  = 48
	)
	type runOut struct {
		mid, final []byte
		rk         *rack
	}
	run := func(fast bool) runOut {
		rk := buildPair(t, fast)
		var out runOut
		for i := 0; i < nChunks; i++ {
			if err := rk.r.Run(chunk); err != nil {
				t.Fatal(err)
			}
			if i == midChunk-1 {
				out.mid = saveRack(t, rk)
				if fast && rk.socs[1].SkippedCycles() == 0 {
					t.Error("fast run reached the mid-run checkpoint without ever skipping")
				}
			}
		}
		out.final = saveRack(t, rk)
		out.rk = rk
		return out
	}

	fastRun, slowRun := run(true), run(false)
	for _, s := range fastRun.rk.socs {
		if !s.Halted() {
			t.Fatalf("node %s did not finish", s.Name())
		}
	}
	if !bytes.Equal(fastRun.mid, slowRun.mid) {
		t.Errorf("mid-run checkpoints diverge: fast %#x slow %#x", hash64(fastRun.mid), hash64(slowRun.mid))
	}
	if !bytes.Equal(fastRun.final, slowRun.final) {
		t.Errorf("final checkpoints diverge: fast %#x slow %#x", hash64(fastRun.final), hash64(slowRun.final))
	}
	if got, want := fastRun.rk.socs[1].Console(), slowRun.rk.socs[1].Console(); got != want {
		t.Errorf("console diverged: %q vs %q", got, want)
	}
	if skipped := fastRun.rk.socs[1].SkippedCycles(); skipped == 0 {
		t.Error("receiver never took the quiescent skip")
	}
	if slowRun.rk.socs[1].SkippedCycles() != 0 {
		t.Error("slow run skipped cycles with the fast path disabled")
	}

	// Cross-setting restore: a checkpoint taken mid-skip-window by the fast
	// run must land bit-exactly in a rack running the per-cycle path.
	resumed := buildPair(t, false)
	restoreRack(t, resumed, fastRun.mid)
	for i := midChunk; i < nChunks; i++ {
		if err := resumed.r.Run(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if got := saveRack(t, resumed); !bytes.Equal(got, slowRun.final) {
		t.Errorf("restored run diverged: %#x, want %#x", hash64(got), hash64(slowRun.final))
	}
}

// stormProgram hammers the block device: eight 1-sector reads, each
// awaited in WFI with the completion interrupt enabled — a constant
// stream of wakeups interleaved with DMA, so the skip guard must keep
// declining without ever changing behaviour.
func stormProgram() *riscv.Asm {
	a := riscv.NewAsm()
	a.LI64(riscv.T0, BlockDevBase)
	a.LI(riscv.T1, 1)
	a.SD(riscv.T1, riscv.T0, blockdev.RegIntrEn)
	a.LI(riscv.S0, 0)
	a.Label("loop")
	a.LI64(riscv.T1, DRAMBase+0x2000)
	a.SD(riscv.T1, riscv.T0, blockdev.RegAddr)
	a.ADDI(riscv.T1, riscv.S0, 1)
	a.SD(riscv.T1, riscv.T0, blockdev.RegSector)
	a.LI(riscv.T1, 1)
	a.SD(riscv.T1, riscv.T0, blockdev.RegNSectors)
	a.SD(riscv.Zero, riscv.T0, blockdev.RegWrite)
	a.LD(riscv.A0, riscv.T0, blockdev.RegAlloc)
	a.Label("wait")
	a.WFI()
	a.LD(riscv.T2, riscv.T0, blockdev.RegNComplete)
	a.BEQ(riscv.T2, riscv.Zero, "wait")
	a.LD(riscv.A1, riscv.T0, blockdev.RegComplete)
	a.ADDI(riscv.S0, riscv.S0, 1)
	a.LI(riscv.T3, 8)
	a.BLT(riscv.S0, riscv.T3, "loop")
	powerOff(a)
	return a
}

// socState serialises one standalone blade for byte comparison.
func socState(t *testing.T, s *SoC) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{})
	if err != nil {
		t.Fatal(err)
	}
	w.Section("soc")
	if err := s.Save(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInterruptStormEquivalence drives an interrupt-per-iteration workload
// with fast paths on and off: the skip guard sees a pending interrupt or a
// busy DMA tracker nearly every window, and whatever it decides the final
// state must be bit-identical.
func TestInterruptStormEquivalence(t *testing.T) {
	run := func(fast bool) *SoC {
		s := mustSoC(t, Config{Name: "n", Cores: 1, MAC: 1}, stormProgram())
		for i := 0; i < 8; i++ {
			s.BlockDev().WriteSector(uint64(i+1), []byte(fmt.Sprintf("sector-%d", i+1)))
		}
		setFastPaths(s, fast)
		tickUntilHalted(t, s, 10_000_000)
		return s
	}
	on, off := run(true), run(false)
	if got := on.Core(0).X[riscv.S0]; got != 8 {
		t.Fatalf("storm loop completed %d iterations, want 8", got)
	}
	if a, b := socState(t, on), socState(t, off); !bytes.Equal(a, b) {
		t.Errorf("interrupt-storm state diverges: fast %#x slow %#x", hash64(a), hash64(b))
	}
	if on.Core(0).Stats() != off.Core(0).Stats() {
		t.Errorf("stats diverge: %+v vs %+v", on.Core(0).Stats(), off.Core(0).Stats())
	}
}

// buildRack8 wires the acceptance-test topology: four delayed senders and
// four WFI receivers behind one 8-port ToR, with a deterministic fault
// plan injected at every endpoint and stalls on the switch.
func buildRack8(t *testing.T, fast bool, horizon int) *rack {
	t.Helper()
	mac := func(i int) ethernet.MAC { return ethernet.MAC(0x0200_0000_0010 + uint64(i)) }
	tor := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 8})
	r := fame.NewRunner()
	var socs []*SoC
	for pair := 0; pair < 4; pair++ {
		src, dst := mac(2*pair), mac(2*pair+1)
		frame := &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeIPv4,
			Payload: []byte(fmt.Sprintf("pair-%d traffic", pair))}
		buf, err := frame.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sender := mustSoC(t, Config{Name: fmt.Sprintf("s%d", pair), Cores: 1, MAC: src},
			delaySendProgram(len(buf), int32(1500*(pair+1))))
		sender.DRAM().WriteBytes(0x2000, buf)
		receiver := mustSoC(t, Config{Name: fmt.Sprintf("r%d", pair), Cores: 1, MAC: dst}, wfiRecvLoopProgram())
		tor.MACTable().Set(src, 2*pair)
		tor.MACTable().Set(dst, 2*pair+1)
		socs = append(socs, sender, receiver)
	}
	r.Add(socs[0]) // Add in a fixed order so endpoint indices match across builds.
	for _, s := range socs[1:] {
		r.Add(s)
	}
	r.Add(tor)
	for i, s := range socs {
		if err := r.Connect(s, 0, tor, i, fpLinkLat); err != nil {
			t.Fatal(err)
		}
		setFastPaths(s, fast)
	}

	targets := []faults.Target{{Name: "tor", Ports: 8, Kind: faults.SwitchTarget}}
	for _, s := range socs {
		targets = append(targets, faults.Target{Name: s.Name(), Ports: 1, Kind: faults.NodeTarget})
	}
	plan, err := faults.Generate(faults.Config{
		Scenario:   "fastpath-acceptance",
		Seed:       42,
		Horizon:    clock.Cycles(horizon),
		LinkFlap:   faults.Burst{MeanEvery: 20_000, MeanDuration: 3_000},
		PacketDrop: faults.Burst{MeanEvery: 15_000, MeanDuration: 2_000},
		Corrupt:    faults.Burst{MeanEvery: 30_000, MeanDuration: 1_500},
		PortStall:  faults.Burst{MeanEvery: 25_000, MeanDuration: 2_000},
		NodeFreeze: faults.Burst{MeanEvery: 60_000, MeanDuration: 5_000},
	}, targets)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInjector(plan)
	if fn := plan.StallFunc("tor"); fn != nil {
		tor.SetStall(fn)
	}
	return &rack{r: r, socs: socs, tor: tor}
}

// TestClusterFaultedFastPathEquivalence is the issue's acceptance check:
// an 8-node cluster under fault injection must produce bit-identical
// checkpoint streams with fast paths on vs off, under the sequential and
// parallel schedulers, and across a mid-run checkpoint restored into a
// rack with the opposite fast-path setting and scheduler.
func TestClusterFaultedFastPathEquivalence(t *testing.T) {
	const (
		chunk    = fpLinkLat * 4
		nChunks  = 32
		midChunk = 16
		horizon  = chunk * nChunks
	)
	type variant struct {
		name     string
		fast     bool
		parallel bool
	}
	variants := []variant{
		{"fast-seq", true, false},
		{"fast-par", true, true},
		{"slow-seq", false, false},
		{"slow-par", false, true},
	}
	finals := make(map[string][]byte)
	var fastMid []byte
	var fastSkipped uint64
	for _, v := range variants {
		rk := buildRack8(t, v.fast, horizon)
		if v.parallel {
			if err := rk.r.SetWorkers(4); err != nil {
				t.Fatal(err)
			}
		}
		step := func() error {
			if v.parallel {
				return rk.r.RunParallel(chunk)
			}
			return rk.r.Run(chunk)
		}
		for i := 0; i < nChunks; i++ {
			if err := step(); err != nil {
				t.Fatal(err)
			}
			if i == midChunk-1 && v.name == "fast-seq" {
				fastMid = saveRack(t, rk)
			}
		}
		finals[v.name] = saveRack(t, rk)
		if v.name == "fast-seq" {
			for _, s := range rk.socs {
				fastSkipped += s.SkippedCycles()
			}
		}
	}
	want := finals["slow-seq"]
	for _, v := range variants {
		if !bytes.Equal(finals[v.name], want) {
			t.Errorf("%s final state %#x != slow-seq %#x", v.name, hash64(finals[v.name]), hash64(want))
		}
	}
	if fastSkipped == 0 {
		t.Error("no blade ever took the quiescent skip in the fast cluster run")
	}

	// Mid-run checkpoint from the fast sequential run, restored into a
	// slow parallel rack: the remaining half must converge to the same
	// final state.
	resumed := buildRack8(t, false, horizon)
	if err := resumed.r.SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	restoreRack(t, resumed, fastMid)
	for i := midChunk; i < nChunks; i++ {
		if err := resumed.r.RunParallel(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if got := saveRack(t, resumed); !bytes.Equal(got, want) {
		t.Errorf("restored cluster diverged: %#x, want %#x", hash64(got), hash64(want))
	}
}

// denseThenSendProgram is the partial-idle shape: hart 0 burns a dense ALU
// loop (the superblock dispatcher's bread and butter), pushes one staged
// frame through the NIC and parks in WFI; every other hart parks in WFI
// immediately. While hart 0 computes, the blade has exactly one runnable
// hart — the compute window must keep dispatching it while the parked
// harts are skipped arithmetically.
func denseThenSendProgram(frameLen int, delay int32) *riscv.Asm {
	a := riscv.NewAsm()
	a.CSRRS(riscv.T0, riscv.CSRMHartID, riscv.Zero)
	a.BNE(riscv.T0, riscv.Zero, "park")
	a.LI(riscv.S0, delay)
	a.Label("delay")
	a.ADD(riscv.A1, riscv.A1, riscv.S0)
	a.XORI(riscv.A2, riscv.A2, 0x3c)
	a.SLLI(riscv.A3, riscv.A1, 7)
	a.ADDI(riscv.S0, riscv.S0, -1)
	a.BNE(riscv.S0, riscv.Zero, "delay")
	a.LI64(riscv.T0, NICBase)
	a.LI64(riscv.T1, (DRAMBase+0x2000)|uint64(frameLen)<<48)
	a.SD(riscv.T1, riscv.T0, nic.RegSendReq)
	a.Label("poll")
	a.LD(riscv.T2, riscv.T0, nic.RegCounts)
	a.SRLI(riscv.T2, riscv.T2, 16)
	a.ANDI(riscv.T2, riscv.T2, 0xff)
	a.BEQ(riscv.T2, riscv.Zero, "poll")
	a.LD(riscv.Zero, riscv.T0, nic.RegSendComp)
	a.Label("park")
	a.WFI()
	a.J("park")
	return a
}

// buildPartialIdlePair wires a two-hart sender (hart 0 dense, hart 1
// parked in WFI) to a single-hart WFI receiver. fast additionally enables
// the superblock dispatcher on top of the PR5 fast paths.
func buildPartialIdlePair(t *testing.T, fast bool) *rack {
	t.Helper()
	const macA, macB = ethernet.MAC(0x0200_0000_0003), ethernet.MAC(0x0200_0000_0004)
	frame := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeIPv4, Payload: []byte("partial idle payload")}
	buf, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sender := mustSoC(t, Config{Name: "A", Cores: 2, MAC: macA}, denseThenSendProgram(len(buf), 12_000))
	sender.DRAM().WriteBytes(0x2000, buf)
	receiver := mustSoC(t, Config{Name: "B", Cores: 1, MAC: macB}, wfiRecvProgram())
	tor := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2})
	tor.MACTable().Set(macA, 0)
	tor.MACTable().Set(macB, 1)
	r := fame.NewRunner()
	r.Add(sender)
	r.Add(receiver)
	r.Add(tor)
	if err := r.Connect(sender, 0, tor, 0, fpLinkLat); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(receiver, 0, tor, 1, fpLinkLat); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*SoC{sender, receiver} {
		setFastPaths(s, fast)
		s.SetSuperblocks(fast)
	}
	return &rack{r: r, socs: []*SoC{sender, receiver}, tor: tor}
}

// TestPartialIdleSkipEquivalence is the superblock PR's keystone: a blade
// with one dense hart and one WFI hart must take compute windows (parked
// hart skipped arithmetically, dense hart through block dispatch) and
// stay bit-identical to per-cycle ticking — under both schedulers, at a
// mid-window checkpoint taken while the partial idle is active, and
// across restores that cross both the fast-path setting and the
// scheduler.
func TestPartialIdleSkipEquivalence(t *testing.T) {
	const (
		chunk    = fpLinkLat * 4
		midChunk = 6
		nChunks  = 40
	)
	type variant struct {
		name     string
		fast     bool
		parallel bool
	}
	variants := []variant{
		{"fast-seq", true, false},
		{"fast-par", true, true},
		{"slow-seq", false, false},
		{"slow-par", false, true},
	}
	finals := make(map[string][]byte)
	mids := make(map[string][]byte)
	racks := make(map[string]*rack)
	for _, v := range variants {
		rk := buildPartialIdlePair(t, v.fast)
		if v.parallel {
			if err := rk.r.SetWorkers(2); err != nil {
				t.Fatal(err)
			}
		}
		step := func() error {
			if v.parallel {
				return rk.r.RunParallel(chunk)
			}
			return rk.r.Run(chunk)
		}
		for i := 0; i < nChunks; i++ {
			if err := step(); err != nil {
				t.Fatal(err)
			}
			if i == midChunk-1 {
				mids[v.name] = saveRack(t, rk)
				if v.fast {
					// The checkpoint must land inside the partial-idle phase:
					// hart 0 still dense, hart 1 already parked and skipped.
					if rk.socs[0].PartialIdleCycles() == 0 {
						t.Errorf("%s: no partial-idle cycles by the mid checkpoint", v.name)
					}
					if rk.socs[0].SuperblockInstret() == 0 {
						t.Errorf("%s: no superblock dispatch by the mid checkpoint", v.name)
					}
				}
			}
		}
		finals[v.name] = saveRack(t, rk)
		racks[v.name] = rk
	}
	for _, v := range variants[1:] {
		if !bytes.Equal(mids[v.name], mids["fast-seq"]) {
			t.Errorf("%s mid checkpoint %#x != fast-seq %#x", v.name, hash64(mids[v.name]), hash64(mids["fast-seq"]))
		}
		if !bytes.Equal(finals[v.name], finals["fast-seq"]) {
			t.Errorf("%s final state %#x != fast-seq %#x", v.name, hash64(finals[v.name]), hash64(finals["fast-seq"]))
		}
	}
	if !racks["fast-seq"].socs[1].Halted() {
		t.Fatal("receiver never completed the exchange")
	}
	for _, name := range []string{"slow-seq", "slow-par"} {
		rk := racks[name]
		if rk.socs[0].PartialIdleCycles() != 0 || rk.socs[0].SuperblockInstret() != 0 {
			t.Errorf("%s: slow run used fast-path machinery (partIdle=%d sbInstret=%d)",
				name, rk.socs[0].PartialIdleCycles(), rk.socs[0].SuperblockInstret())
		}
	}

	// Cross restores: the fast sequential run's mid-partial-idle checkpoint
	// into a slow parallel rack, and the slow sequential run's into a fast
	// parallel rack — both halves must converge to the shared final state.
	for _, cross := range []struct {
		from string
		fast bool
	}{
		{"fast-seq", false},
		{"slow-seq", true},
	} {
		resumed := buildPartialIdlePair(t, cross.fast)
		if err := resumed.r.SetWorkers(2); err != nil {
			t.Fatal(err)
		}
		restoreRack(t, resumed, mids[cross.from])
		for i := midChunk; i < nChunks; i++ {
			if err := resumed.r.RunParallel(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if got := saveRack(t, resumed); !bytes.Equal(got, finals["fast-seq"]) {
			t.Errorf("restore %s into fast=%v rack diverged: %#x, want %#x",
				cross.from, cross.fast, hash64(got), hash64(finals["fast-seq"]))
		}
	}
}
