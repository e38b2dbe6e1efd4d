package riscv

import (
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// flatBus is a simple test memory with uniform latency and an optional
// MMIO hook.
type flatBus struct {
	mem     []byte
	latency clock.Cycles
	// mmio intercepts accesses at/above mmioBase when set.
	mmioBase  uint64
	mmioLoad  func(addr uint64, size int) uint64
	mmioStore func(addr uint64, size int, v uint64)
}

func newFlatBus(size int) *flatBus { return &flatBus{mem: make([]byte, size)} }

func (b *flatBus) Fetch(addr uint64) (uint32, clock.Cycles) {
	v, _ := b.Load(addr, 4)
	return uint32(v), b.latency
}

func (b *flatBus) Load(addr uint64, size int) (uint64, clock.Cycles) {
	if b.mmioLoad != nil && addr >= b.mmioBase {
		return b.mmioLoad(addr, size), b.latency
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b.mem[addr+uint64(i)])
	}
	return v, b.latency
}

func (b *flatBus) Store(addr uint64, size int, v uint64) clock.Cycles {
	if b.mmioStore != nil && addr >= b.mmioBase {
		b.mmioStore(addr, size, v)
		return b.latency
	}
	for i := 0; i < size; i++ {
		b.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
	return b.latency
}

func (b *flatBus) loadProgram(words []uint32) {
	for i, w := range words {
		b.Store(uint64(i*4), 4, uint64(w))
	}
}

// run executes until halt or maxSteps, returning the CPU.
func run(t *testing.T, a *Asm, maxSteps int, setup func(*CPU, *flatBus)) *CPU {
	t.Helper()
	bus := newFlatBus(1 << 20)
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 0, 0)
	if setup != nil {
		setup(cpu, bus)
	}
	for i := 0; i < maxSteps && !cpu.Halted; i++ {
		cpu.Cycle += c(cpu.Step())
	}
	if !cpu.Halted {
		t.Fatalf("program did not halt within %d steps (pc=%#x)", maxSteps, cpu.PC)
	}
	return cpu
}

func c(x clock.Cycles) clock.Cycles { return x }

func TestArithmeticLoop(t *testing.T) {
	// sum = 0; for i = 1..10 { sum += i }; halt. sum in A0.
	a := NewAsm()
	a.LI(A0, 0)
	a.LI(T0, 1)
	a.LI(T1, 11)
	a.Label("loop")
	a.ADD(A0, A0, T0)
	a.ADDI(T0, T0, 1)
	a.BNE(T0, T1, "loop")
	a.EBREAK()
	cpu := run(t, a, 1000, nil)
	if cpu.X[A0] != 55 {
		t.Errorf("sum = %d, want 55", cpu.X[A0])
	}
}

func TestFibonacci(t *testing.T) {
	a := NewAsm()
	a.LI(T0, 0) // fib(0)
	a.LI(T1, 1) // fib(1)
	a.LI(T2, 20)
	a.Label("loop")
	a.ADD(T3, T0, T1)
	a.MV(T0, T1)
	a.MV(T1, T3)
	a.ADDI(T2, T2, -1)
	a.BNE(T2, Zero, "loop")
	a.MV(A0, T0)
	a.EBREAK()
	cpu := run(t, a, 1000, nil)
	if cpu.X[A0] != 6765 {
		t.Errorf("fib(20) = %d, want 6765", cpu.X[A0])
	}
}

func TestLoadStoreSignExtension(t *testing.T) {
	a := NewAsm()
	base := int32(0x1000)
	a.LI(T0, base)
	a.LI(T1, -2) // 0xff..fe
	a.SB(T1, T0, 0)
	a.SH(T1, T0, 8)
	a.SW(T1, T0, 16)
	a.SD(T1, T0, 24)
	a.LB(A0, T0, 0)  // -2
	a.LBU(A1, T0, 0) // 0xfe
	a.LH(A2, T0, 8)  // -2
	a.LHU(A3, T0, 8) // 0xfffe
	a.LW(A4, T0, 16) // -2
	a.LWU(A5, T0, 16)
	a.LD(A6, T0, 24)
	a.EBREAK()
	cpu := run(t, a, 100, nil)
	want := map[Reg]uint64{
		A0: ^uint64(1), A1: 0xfe,
		A2: ^uint64(1), A3: 0xfffe,
		A4: ^uint64(1), A5: 0xfffffffe,
		A6: ^uint64(1),
	}
	for r, w := range want {
		if cpu.X[r] != w {
			t.Errorf("x%d = %#x, want %#x", r, cpu.X[r], w)
		}
	}
}

func TestBranchVariants(t *testing.T) {
	// Each taken branch sets a bit in A0; all 6 must fire.
	a := NewAsm()
	a.LI(A0, 0)
	a.LI(T0, -5)
	a.LI(T1, 5)

	a.BEQ(T0, T0, "beq_ok")
	a.EBREAK()
	a.Label("beq_ok")
	a.ORI(A0, A0, 1)

	a.BNE(T0, T1, "bne_ok")
	a.EBREAK()
	a.Label("bne_ok")
	a.ORI(A0, A0, 2)

	a.BLT(T0, T1, "blt_ok") // -5 < 5 signed
	a.EBREAK()
	a.Label("blt_ok")
	a.ORI(A0, A0, 4)

	a.BGE(T1, T0, "bge_ok")
	a.EBREAK()
	a.Label("bge_ok")
	a.ORI(A0, A0, 8)

	a.BLTU(T1, T0, "bltu_ok") // 5 < 0xff..fb unsigned
	a.EBREAK()
	a.Label("bltu_ok")
	a.ORI(A0, A0, 16)

	a.BGEU(T0, T1, "bgeu_ok")
	a.EBREAK()
	a.Label("bgeu_ok")
	a.ORI(A0, A0, 32)
	a.EBREAK()

	cpu := run(t, a, 100, nil)
	if cpu.X[A0] != 63 {
		t.Errorf("branch bits = %#b, want 0b111111", cpu.X[A0])
	}
}

func TestFunctionCall(t *testing.T) {
	// main: A0 = double(21) via JAL/RET.
	a := NewAsm()
	a.LI(A0, 21)
	a.JAL(RA, "double")
	a.EBREAK()
	a.Label("double")
	a.ADD(A0, A0, A0)
	a.RET()
	cpu := run(t, a, 100, nil)
	if cpu.X[A0] != 42 {
		t.Errorf("double(21) = %d", cpu.X[A0])
	}
}

func TestMulDivEdgeCases(t *testing.T) {
	a := NewAsm()
	a.LI(T0, 0)
	a.LI(T1, 7)
	a.DIV(A0, T1, T0) // div by zero -> -1
	a.REM(A1, T1, T0) // rem by zero -> dividend
	a.LI64(T2, 1<<63) // INT64_MIN
	a.LI(T3, -1)
	a.DIV(A2, T2, T3) // overflow -> INT64_MIN
	a.REM(A3, T2, T3) // overflow -> 0
	a.LI(T4, 6)
	a.LI(T5, 7)
	a.MUL(A4, T4, T5)
	a.EBREAK()
	cpu := run(t, a, 200, nil)
	if cpu.X[A0] != ^uint64(0) {
		t.Errorf("div/0 = %#x, want all ones", cpu.X[A0])
	}
	if cpu.X[A1] != 7 {
		t.Errorf("rem/0 = %d, want 7", cpu.X[A1])
	}
	if cpu.X[A2] != 1<<63 {
		t.Errorf("overflow div = %#x", cpu.X[A2])
	}
	if cpu.X[A3] != 0 {
		t.Errorf("overflow rem = %d", cpu.X[A3])
	}
	if cpu.X[A4] != 42 {
		t.Errorf("6*7 = %d", cpu.X[A4])
	}
}

func TestMulhuAgainstGo(t *testing.T) {
	// Property: mulhu matches 128-bit reference computed via math/bits
	// semantics (here recomputed with split arithmetic on the Go side).
	check := func(x, y uint64) bool {
		hi := mulhu(x, y)
		// Reference using big-ish decomposition.
		xl, xh := x&0xffffffff, x>>32
		yl, yh := y&0xffffffff, y>>32
		ll := xl * yl
		lh := xl * yh
		hl := xh * yl
		hh := xh * yh
		carry := (ll>>32 + lh&0xffffffff + hl&0xffffffff) >> 32
		ref := hh + lh>>32 + hl>>32 + carry
		return hi == ref
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLI64Property(t *testing.T) {
	// Property: LI64 materialises arbitrary 64-bit constants exactly.
	check := func(v uint64) bool {
		a := NewAsm()
		a.LI64(A0, v)
		a.EBREAK()
		bus := newFlatBus(1 << 16)
		bus.loadProgram(a.MustAssemble())
		cpu := New(bus, 0, 0)
		for i := 0; i < 50 && !cpu.Halted; i++ {
			cpu.Step()
		}
		return cpu.Halted && cpu.X[A0] == v
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLIProperty(t *testing.T) {
	check := func(v int32) bool {
		a := NewAsm()
		a.LI(A0, v)
		a.EBREAK()
		bus := newFlatBus(1 << 16)
		bus.loadProgram(a.MustAssemble())
		cpu := New(bus, 0, 0)
		for i := 0; i < 10 && !cpu.Halted; i++ {
			cpu.Step()
		}
		return cpu.Halted && cpu.X[A0] == uint64(int64(v))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestExternalInterruptFlow(t *testing.T) {
	// Install a handler that increments A7 and MRETs; main spins in WFI.
	a := NewAsm()
	a.J("main")
	a.Label("handler") // must be at a known PC: instruction index 1 -> 4
	a.ADDI(A7, A7, 1)
	// Acknowledge by clearing MIP.MEIP via CSRRC.
	a.LI(T0, MIPMEIP)
	a.CSRRC(Zero, CSRMIP, T0)
	a.MRET()
	a.Label("main")
	a.LI(T0, 4) // handler address
	a.CSRRW(Zero, CSRMTVec, T0)
	a.LI(T0, MIEMEIE)
	a.CSRRS(Zero, CSRMIE, T0)
	a.LI(T0, MStatusMIE)
	a.CSRRS(Zero, CSRMStatus, T0)
	a.Label("spin")
	a.WFI()
	a.LI(T1, 3)
	a.BNE(A7, T1, "spin")
	a.EBREAK()

	bus := newFlatBus(1 << 16)
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 0, 0)
	steps := 0
	for !cpu.Halted && steps < 10000 {
		cpu.Step()
		steps++
		// Fire an interrupt whenever the core is parked in WFI.
		if cpu.WaitingForInterrupt {
			cpu.SetExternalInterrupt(true)
		}
	}
	if !cpu.Halted {
		t.Fatalf("did not halt; pc=%#x A7=%d", cpu.PC, cpu.X[A7])
	}
	if cpu.X[A7] != 3 {
		t.Errorf("handler ran %d times, want 3", cpu.X[A7])
	}
	if cpu.Stats().Traps != 3 {
		t.Errorf("Traps = %d, want 3", cpu.Stats().Traps)
	}
}

func TestInterruptDisabledNotTaken(t *testing.T) {
	// With mstatus.MIE clear, a pending external interrupt must not trap.
	a := NewAsm()
	a.LI(T0, 100)
	a.Label("loop")
	a.ADDI(T0, T0, -1)
	a.BNE(T0, Zero, "loop")
	a.EBREAK()
	bus := newFlatBus(1 << 16)
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 0, 0)
	cpu.SetExternalInterrupt(true)
	for i := 0; i < 1000 && !cpu.Halted; i++ {
		cpu.Step()
	}
	if !cpu.Halted {
		t.Fatal("did not halt")
	}
	if cpu.Stats().Traps != 0 {
		t.Errorf("took %d traps with interrupts disabled", cpu.Stats().Traps)
	}
}

func TestECallTrapsToHandler(t *testing.T) {
	a := NewAsm()
	a.J("main")
	a.Label("handler")
	a.LI(A0, 77)
	a.EBREAK()
	a.Label("main")
	a.LI(T0, 4)
	a.CSRRW(Zero, CSRMTVec, T0)
	a.ECALL()
	a.EBREAK() // not reached
	cpu := run(t, a, 100, nil)
	if cpu.X[A0] != 77 {
		t.Errorf("handler not taken: A0=%d", cpu.X[A0])
	}
	if cpu.MCause != CauseECall {
		t.Errorf("MCause = %#x, want %d", cpu.MCause, CauseECall)
	}
}

func TestMMIO(t *testing.T) {
	a := NewAsm()
	a.LI(T0, 0x10000)
	a.LI(T1, 123)
	a.SD(T1, T0, 0)
	a.LD(A0, T0, 8)
	a.EBREAK()
	bus := newFlatBus(1 << 16)
	bus.mmioBase = 0x10000
	var stored uint64
	bus.mmioStore = func(addr uint64, size int, v uint64) { stored = v }
	bus.mmioLoad = func(addr uint64, size int) uint64 { return 456 }
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 0, 0)
	for i := 0; i < 100 && !cpu.Halted; i++ {
		cpu.Step()
	}
	if stored != 123 {
		t.Errorf("MMIO store saw %d", stored)
	}
	if cpu.X[A0] != 456 {
		t.Errorf("MMIO load = %d", cpu.X[A0])
	}
}

func TestCycleCSR(t *testing.T) {
	a := NewAsm()
	a.CSRRS(A0, CSRCycle, Zero)
	a.EBREAK()
	bus := newFlatBus(1 << 16)
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 0, 0)
	cpu.Cycle = 9999
	for i := 0; i < 10 && !cpu.Halted; i++ {
		cpu.Step()
	}
	if cpu.X[A0] != 9999 {
		t.Errorf("rdcycle = %d, want 9999", cpu.X[A0])
	}
}

func TestTimingCosts(t *testing.T) {
	// 3 ALU ops + EBREAK with latency-0 bus: cycles = base per
	// instruction; a taken branch adds BranchTaken.
	a := NewAsm()
	a.ADDI(T0, Zero, 1)
	a.ADDI(T0, T0, 1)
	a.J("next")
	a.ADDI(T0, T0, 100) // skipped
	a.Label("next")
	a.EBREAK()
	bus := newFlatBus(1 << 16)
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 0, 0)
	var total clock.Cycles
	for i := 0; i < 100 && !cpu.Halted; i++ {
		total += cpu.Step()
	}
	want := 4*costBase + costBranchTaken
	if total != want {
		t.Errorf("total cycles = %d, want %d", total, want)
	}
	if cpu.X[T0] != 2 {
		t.Errorf("T0 = %d, want 2 (skipped instruction executed?)", cpu.X[T0])
	}
}

func TestHartID(t *testing.T) {
	a := NewAsm()
	a.CSRRS(A0, CSRMHartID, Zero)
	a.EBREAK()
	bus := newFlatBus(1 << 16)
	bus.loadProgram(a.MustAssemble())
	cpu := New(bus, 3, 0)
	for i := 0; i < 10 && !cpu.Halted; i++ {
		cpu.Step()
	}
	if cpu.X[A0] != 3 {
		t.Errorf("mhartid = %d, want 3", cpu.X[A0])
	}
}

func TestX0AlwaysZero(t *testing.T) {
	a := NewAsm()
	a.ADDI(Zero, Zero, 100)
	a.MV(A0, Zero)
	a.EBREAK()
	cpu := run(t, a, 10, nil)
	if cpu.X[A0] != 0 {
		t.Errorf("x0 = %d after write attempt", cpu.X[A0])
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAsm()
	a.BNE(T0, T1, "nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("undefined label assembled without error")
	}

	b := NewAsm()
	b.ADDI(T0, Zero, 5000) // out of 12-bit range
	if _, err := b.Assemble(); err == nil {
		t.Error("oversized immediate assembled without error")
	}

	d := NewAsm()
	d.Label("x")
	d.Label("x")
	d.NOP()
	if _, err := d.Assemble(); err == nil {
		t.Error("duplicate label assembled without error")
	}
}

func TestWordOps32(t *testing.T) {
	a := NewAsm()
	a.LI(T0, 0x7fffffff)
	a.ADDIW(A0, T0, 1) // wraps to INT32_MIN, sign-extended
	a.ADDW(A1, T0, T0) // 0xfffffffe sign-extended
	a.LI(T1, 1)
	a.SUBW(A2, Zero, T1) // -1
	a.EBREAK()
	cpu := run(t, a, 100, nil)
	if cpu.X[A0] != 0xffffffff80000000 {
		t.Errorf("ADDIW wrap = %#x", cpu.X[A0])
	}
	if cpu.X[A1] != 0xfffffffffffffffe {
		t.Errorf("ADDW = %#x", cpu.X[A1])
	}
	if cpu.X[A2] != ^uint64(0) {
		t.Errorf("SUBW = %#x", cpu.X[A2])
	}
}

func TestShifts(t *testing.T) {
	a := NewAsm()
	a.LI(T0, -8)
	a.SRAI(A0, T0, 1) // -4
	a.SRLI(A1, T0, 60)
	a.SLLI(A2, T0, 2) // -32
	a.EBREAK()
	cpu := run(t, a, 100, nil)
	if int64(cpu.X[A0]) != -4 {
		t.Errorf("SRAI = %d", int64(cpu.X[A0]))
	}
	if cpu.X[A1] != 0xf {
		t.Errorf("SRLI = %#x", cpu.X[A1])
	}
	if int64(cpu.X[A2]) != -32 {
		t.Errorf("SLLI = %d", int64(cpu.X[A2]))
	}
}
