// Package soc assembles the complete target server blade of Table I as a
// single FAME-1 endpoint:
//
//	1-4 RISC-V Rocket-class cores @ 3.2 GHz   (internal/riscv)
//	16 KiB L1I$ + 16 KiB L1D$ per core        (internal/cache)
//	256 KiB shared L2$                        (internal/cache)
//	16 GiB DDR3 memory                        (internal/dram)
//	200 Gbit/s Ethernet NIC                   (internal/nic)
//	Block device                              (internal/blockdev)
//	UART, power-off device, accelerator slots
//
// The blade's only token port is the NIC's top-level interface: each
// target cycle the SoC consumes one network input token and produces one
// output token, so the whole blade obeys the decoupled FAME-1 contract and
// can be dropped into any fame.Runner topology next to switch models.
package soc

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/dram"
	"repro/internal/ethernet"
	"repro/internal/nic"
	"repro/internal/riscv"
	"repro/internal/token"
)

// Memory map.
const (
	// DRAMBase is where the 16 GiB memory window begins; programs are
	// loaded and entered at DRAMBase.
	DRAMBase uint64 = 0x8000_0000
	// NICBase is the NIC MMIO window.
	NICBase uint64 = 0x6000_0000
	// BlockDevBase is the block device MMIO window.
	BlockDevBase uint64 = 0x6100_0000
	// UARTBase is the console MMIO window (write a byte to print it).
	UARTBase uint64 = 0x5400_0000
	// PowerOff halts the simulation when written, like the tohost
	// "finisher" device in RISC-V test harnesses.
	PowerOff uint64 = 0x0010_0000
	// mmioWindow is the size of each device window.
	mmioWindow uint64 = 0x1000
	// mmioLatency is the fixed cost of an uncached MMIO access.
	mmioLatency clock.Cycles = 12
)

// Device is a memory-mapped peripheral attachable to the SoC (Table II's
// accelerator slots use this interface too). Devices are passive: they
// act only under MMIO and report their interrupt line on demand, which is
// what lets the quiescent fast path skip cycles without consulting them
// beyond IntrPending.
type Device interface {
	// MMIOLoad services a read at the given offset within the device
	// window.
	MMIOLoad(now clock.Cycles, offset uint64) uint64
	// MMIOStore services a write.
	MMIOStore(now clock.Cycles, offset uint64, v uint64)
	// IntrPending reports whether the device is asserting its interrupt.
	IntrPending() bool
}

// Config describes a server blade.
type Config struct {
	// Name identifies the blade.
	Name string
	// Cores is the number of Rocket-class cores (Table I: 1 to 4).
	Cores int
	// MAC is the NIC address assigned by the manager.
	MAC ethernet.MAC
}

// SoC is the assembled server blade.
type SoC struct {
	cfg  Config
	dram *dram.Model
	l2   *cache.Cache
	nic  *nic.NIC
	bdev *blockdev.Device

	cores []*core
	// devices holds the generic accelerator slots sorted by MMIO base:
	// decode is a binary search and iteration order is deterministic.
	devices []mmioSlot

	console []byte
	cycle   clock.Cycles
	halted  bool

	// noSkip disables the compute-only window fast path (default on).
	noSkip bool
	// skipped counts target cycles advanced arithmetically while the
	// devices were idle and no hart ran. Observability only — never
	// snapshotted, so it cannot perturb StateHash.
	skipped uint64
	// partIdle counts hart-cycles the partial-idle park avoided burning on
	// WFI harts while another hart kept the blade busy (observability only).
	partIdle uint64

	// Compute-only window state (see computeWindow). winBroke is shared
	// with every hart via riscv.CPU.BindWindow so an MMIO access can end a
	// superblock dispatch mid-window.
	winOn      bool
	winBroke   bool
	winStart   clock.Cycles
	winBrokeAt clock.Cycles
	active     []*core
}

type mmioSlot struct {
	base uint64
	dev  Device
}

// core bundles one hart with its private L1s and bus adapter.
type core struct {
	cpu       *riscv.CPU
	bus       *coreBus
	busyUntil clock.Cycles
}

// New builds a blade. The program (raw RV64 machine code) is loaded at
// DRAMBase, where all harts begin execution; hart 0 is conventionally the
// only one released unless the program coordinates via mhartid.
func New(cfg Config, program []byte) (*SoC, error) {
	if cfg.Cores < 1 || cfg.Cores > 4 {
		return nil, fmt.Errorf("soc: %d cores outside Table I's 1-4 range", cfg.Cores)
	}
	s := &SoC{cfg: cfg}
	s.dram = dram.New(dram.DefaultConfig())
	s.l2 = cache.New(cache.DefaultL2(), dramLevel{s.dram})
	s.nic = nic.New(nic.DefaultConfig(cfg.MAC), &socDMA{s: s})
	s.bdev = blockdev.New(blockdev.DefaultConfig(), &socDMA{s: s})

	l1i := cache.DefaultL1I()
	for i := 0; i < cfg.Cores; i++ {
		b := &coreBus{
			s:          s,
			l1i:        cache.New(l1i, s.l2),
			l1d:        cache.New(cache.DefaultL1D(), s.l2),
			ilineBytes: uint64(l1i.LineBytes),
			ihitLat:    l1i.HitLatency,
		}
		if lb := uint64(l1i.LineBytes); lb > 1 && lb&(lb-1) == 0 {
			b.ilineShift = uint(bits.TrailingZeros64(lb))
		}
		c := &core{cpu: riscv.New(b, uint64(i), DRAMBase), bus: b}
		c.cpu.BindWindow(&b.now, &s.winBroke)
		s.cores = append(s.cores, c)
	}

	s.dram.WriteBytes(0, make([]byte, 0)) // touch nothing; program below
	s.loadProgram(program)
	return s, nil
}

func (s *SoC) loadProgram(program []byte) {
	s.dram.WriteBytes(0+dramOffset(DRAMBase), program)
}

func dramOffset(addr uint64) uint64 { return addr - DRAMBase }

// RegisterDevice attaches an accelerator or custom peripheral at the given
// MMIO base (must not collide with the built-in windows). The slot list
// stays sorted by base so MMIO decode is a binary search.
func (s *SoC) RegisterDevice(base uint64, dev Device) error {
	if base == NICBase || base == BlockDevBase || base == UARTBase {
		return fmt.Errorf("soc: MMIO base %#x collides with a built-in device", base)
	}
	i := sort.Search(len(s.devices), func(i int) bool { return s.devices[i].base >= base })
	if i < len(s.devices) && s.devices[i].base == base {
		return fmt.Errorf("soc: MMIO base %#x registered twice", base)
	}
	s.devices = append(s.devices, mmioSlot{})
	copy(s.devices[i+1:], s.devices[i:])
	s.devices[i] = mmioSlot{base: base, dev: dev}
	return nil
}

// DMA returns a coherent DMA port into the blade's memory system (timing
// through the shared L2, data against DRAM). Accelerators attached via
// RegisterDevice use it to move operands, like RoCC units sharing the L2.
func (s *SoC) DMA() nic.Memory { return &socDMA{s: s} }

// DRAM exposes the memory model (for test setup and result extraction).
func (s *SoC) DRAM() *dram.Model { return s.dram }

// Core returns hart i's CPU state.
func (s *SoC) Core(i int) *riscv.CPU { return s.cores[i].cpu }

// Halted reports whether the blade has powered off (all harts halted or
// the power-off device written).
func (s *SoC) Halted() bool {
	if s.halted {
		return true
	}
	for _, c := range s.cores {
		if !c.cpu.Halted {
			return false
		}
	}
	return true
}

// Name implements fame.Endpoint.
func (s *SoC) Name() string { return s.cfg.Name }

// NumPorts implements fame.Endpoint: the blade's single network port.
func (s *SoC) NumPorts() int { return 1 }

// TickBatch implements fame.Endpoint. Two paths: a blade whose devices
// are idle takes the compute-only window (superblock dispatch, WFI harts
// parked arithmetically, and a pure clock advance when no hart runs at
// all); otherwise it ticks one cycle at a time: NIC token exchange,
// device retirement, then every hart. Both paths are bit-identical in
// every checkpointed observable.
func (s *SoC) TickBatch(n int, in, out []*token.Batch) {
	if s.canComputeWindow(in[0]) {
		s.computeWindow(n, in[0], out[0])
	} else {
		s.tickCycles(n, in[0], out[0])
	}
}

// tickCycles is the general per-cycle path. The inbound batch is walked
// with a run cursor (offsets are strictly increasing) instead of
// expanding it to a dense slice, so an idle window allocates nothing.
func (s *SoC) tickCycles(n int, in, out *token.Batch) {
	s.tickCycleRange(0, n, in, out)
}

// tickCycleRange ticks cycles [from, n) of the current window one at a
// time, then advances the blade clock by the full n; callers account for
// cycles [0, from) themselves (the quiescent prefix of a tripped compute
// window).
func (s *SoC) tickCycleRange(from, n int, in, out *token.Batch) {
	// The run cursor is inline: calling in.At every cycle cost the
	// per-cycle blades up to a quarter of their rate. ri is the next run,
	// pos the index of its first flit in Data and at its first offset (n
	// once the runs are used up).
	runs, data := in.Runs, in.Data
	ri, pos := 0, 0
	for ri < len(runs) && int(runs[ri].Off+runs[ri].Len) <= from {
		pos += int(runs[ri].Len)
		ri++
	}
	at := n
	if ri < len(runs) {
		at = int(runs[ri].Off)
	}
	for i := from; i < n; i++ {
		now := s.cycle + clock.Cycles(i)
		tok := token.Empty
		if i >= at {
			r := runs[ri]
			d := i - int(r.Off)
			tok = token.Token{Data: data[pos+d], Valid: true}
			if d == int(r.Len)-1 {
				tok.Last = r.Last
				pos += int(r.Len)
				if ri++; ri < len(runs) {
					at = int(runs[ri].Off)
				} else {
					at = n
				}
			}
		}
		outTok := s.nic.Tick(now, tok)
		if outTok.Valid {
			out.Put(i, outTok)
		}
		s.bdev.Tick(now)
		if s.halted {
			continue
		}
		intr := s.nic.IntrPending() || s.bdev.IntrPending() || s.devIntrPending()
		for _, c := range s.cores {
			c.cpu.SetExternalInterrupt(intr)
			if now < c.busyUntil || c.cpu.Halted {
				continue
			}
			c.cpu.Cycle = now
			c.bus.now = now
			c.busyUntil = now + c.cpu.Step()
		}
	}
	s.cycle += clock.Cycles(n)
}

// canComputeWindow reports whether the window can run compute-only: no
// inbound tokens, NIC and block device quiescent, no interrupt pending.
// It does not require idle harts (they are what the window runs) or an
// idle DRAM (DRAM timing state is a pure function the per-cycle path never
// ticks; busy harts consult it through their caches exactly as the slow
// path would).
func (s *SoC) canComputeWindow(in *token.Batch) bool {
	if s.noSkip || !in.IsEmpty() {
		return false
	}
	if !s.nic.Quiescent() || !s.bdev.Quiescent() {
		return false
	}
	if s.halted {
		return true
	}
	return !s.nic.IntrPending() && !s.bdev.IntrPending() && !s.devIntrPending()
}

// computeWindow advances a token window whose devices are provably idle
// without the per-cycle NIC/blockdev/interrupt bookkeeping: runnable
// harts execute — through the superblock dispatcher when exactly one hart
// is runnable (multiple runnable harts stay on per-cycle stepping so
// cross-hart memory ordering is untouched), WFI harts are parked
// arithmetically on the cycle and busy time a per-cycle WFI spin would
// reach, and the NIC's rate-limiter refills are replayed in closed form;
// with no runnable hart at all the window is a pure clock advance. The
// first MMIO access (device windows or the power-off latch; the stateless
// UART excluded) trips the window: device state is caught up to the
// access cycle first, so the access observes exactly what the per-cycle
// path would have shown it, and the rest of the window falls back to
// per-cycle ticking.
func (s *SoC) computeWindow(n int, in, out *token.Batch) {
	base := s.cycle
	last := base + clock.Cycles(n) - 1
	wasHalted := s.halted
	s.winStart = base
	s.winBroke = false
	s.winOn = true

	active := s.active[:0]
	if !wasHalted {
		for _, c := range s.cores {
			// The external line is known deasserted for the whole window;
			// one idempotent clear replaces the per-cycle ones.
			c.cpu.SetExternalInterrupt(false)
			if !c.cpu.Halted && !c.cpu.WaitingForInterrupt && c.busyUntil <= last {
				active = append(active, c)
			}
		}
	}
	s.active = active

	switch len(active) {
	case 0:
		// Devices idle and no hart will run (all WFI/halted, or powered
		// off): pure clock advance, with no output token, exactly as the
		// per-cycle path behaves on an idle blade.
		s.skipped += uint64(n)
	case 1:
		c := active[0]
		now := c.busyUntil
		if now < base {
			now = base
		}
		for now <= last && !c.cpu.Halted && !c.cpu.WaitingForInterrupt {
			// Replay the per-cycle deassert at each instruction boundary: a
			// CSR write can set MEIP from software, and the slow path would
			// clear it again before the next step.
			c.cpu.SetExternalInterrupt(false)
			c.cpu.Cycle = now
			c.bus.now = now
			used := c.cpu.StepBlock(last + 1 - now)
			if used == 0 {
				used = c.cpu.Step()
			}
			now += used
			if s.winBroke {
				break
			}
		}
		c.busyUntil = now
	default:
		// Several runnable harts: keep the exact per-cycle interleave (it
		// orders cross-hart loads and stores) but skip device work.
		for i := 0; i < n; i++ {
			now := base + clock.Cycles(i)
			for _, c := range active {
				c.cpu.SetExternalInterrupt(false)
				if now < c.busyUntil || c.cpu.Halted {
					continue
				}
				c.cpu.Cycle = now
				c.bus.now = now
				c.busyUntil = now + c.cpu.Step()
			}
			if s.winBroke {
				break
			}
		}
	}
	s.winOn = false

	// Park harts that were (or went) idle: the per-cycle path burns one
	// cycle per WFI hart per cycle, landing on Cycle=upTo,
	// busyUntil=upTo+1 by the end of the executed prefix of the window.
	upTo := last
	if s.winBroke {
		upTo = s.winBrokeAt
	}
	if !wasHalted {
		for _, c := range s.cores {
			if c.cpu.Halted || !c.cpu.WaitingForInterrupt || c.busyUntil > upTo {
				continue
			}
			from := c.busyUntil
			if from < base {
				from = base
			}
			s.partIdle += uint64(upTo + 1 - from)
			c.cpu.Cycle = upTo
			c.bus.now = upTo
			c.busyUntil = upTo + 1
		}
	}

	if s.winBroke {
		// The trip already replayed NIC refills through winBrokeAt; finish
		// the window per-cycle from the next cycle (the inbound batch is
		// empty, so the resumed slot cursor finds nothing).
		s.tickCycleRange(int(s.winBrokeAt-base)+1, n, in, out)
		return
	}
	s.nic.SkipIdle(base, n)
	s.cycle += clock.Cycles(n)
}

// tripFastWindow ends a compute-only window at the cycle of the MMIO
// access breaking it. NIC state is caught up first — the per-cycle path
// runs nic.Tick for cycle t before any hart steps at t, so the access
// must observe post-tick state. The block device needs no catch-up: its
// quiescent Tick is stateless, which is the same fact an all-idle window
// relies on.
func (s *SoC) tripFastWindow(now clock.Cycles) {
	if !s.winOn || s.winBroke {
		return
	}
	s.winBroke = true
	s.winBrokeAt = now
	s.nic.SkipIdle(s.winStart, int(now-s.winStart)+1)
}

func (s *SoC) devIntrPending() bool {
	for i := range s.devices {
		if s.devices[i].dev.IntrPending() {
			return true
		}
	}
	return false
}

// --- fast-path toggles (all default on) ---

// SetQuiescentSkip toggles the compute-only window, whose all-idle case is
// the bulk idle-cycle skip.
func (s *SoC) SetQuiescentSkip(on bool) { s.noSkip = !on }

// SetFetchMemo toggles every hart's fetch-line memo in the core bus.
func (s *SoC) SetFetchMemo(on bool) {
	for _, c := range s.cores {
		c.bus.memoOff = !on
		c.bus.fetchValid = false
		c.bus.fetch2Valid = false
	}
}

// SetDecodeCache toggles every hart's predecoded instruction cache.
func (s *SoC) SetDecodeCache(on bool) {
	for _, c := range s.cores {
		c.cpu.SetDecodeCache(on)
	}
}

// SetSuperblocks toggles every hart's superblock dispatcher (used inside
// compute-only windows when exactly one hart is runnable).
func (s *SoC) SetSuperblocks(on bool) {
	for _, c := range s.cores {
		c.cpu.SetSuperblocks(on)
	}
}

// InstretTotal sums retired instructions across all harts.
func (s *SoC) InstretTotal() uint64 {
	var total uint64
	for _, c := range s.cores {
		total += c.cpu.Stats().Instret
	}
	return total
}

// invalidateDecode drops predecoded entries covering [addr, addr+n) on
// every hart: a store by any agent (another hart, NIC/blockdev DMA) may
// overwrite code some hart has predecoded.
func (s *SoC) invalidateDecode(addr uint64, n int) {
	for _, c := range s.cores {
		c.cpu.InvalidateDecode(addr, n)
	}
}

// --- memory system plumbing ---

// dramLevel adapts the DRAM model to the cache.MemLevel interface.
type dramLevel struct {
	m *dram.Model
}

func (d dramLevel) AccessLine(now clock.Cycles, addr uint64, write bool) clock.Cycles {
	return d.m.Access(now, addr, write)
}

// socDMA is the NIC/blockdev DMA port: functional data moves against the
// DRAM backing store while timing goes through the shared L2 at line
// granularity with pipelined issue (one line per cycle), which is what
// bounds the bare-metal NIC experiment at the DDR3 streaming rate.
type socDMA struct {
	s *SoC
}

func (d *socDMA) ReadDMA(now clock.Cycles, addr uint64, buf []byte) clock.Cycles {
	d.s.dram.ReadBytes(dramOffset(addr), buf)
	return d.timeLines(now, addr, len(buf), false)
}

func (d *socDMA) WriteDMA(now clock.Cycles, addr uint64, data []byte) clock.Cycles {
	d.s.dram.WriteBytes(dramOffset(addr), data)
	d.s.invalidateDecode(addr, len(data))
	return d.timeLines(now, addr, len(data), true)
}

func (d *socDMA) timeLines(now clock.Cycles, addr uint64, n int, write bool) clock.Cycles {
	const line = 64
	start := addr &^ (line - 1)
	end := (addr + uint64(n) + line - 1) &^ (line - 1)
	done := now
	issue := now
	for a := start; a < end; a += line {
		t := d.s.l2.AccessLine(issue, dramOffset(a), write)
		if t > done {
			done = t
		}
		issue++ // pipelined: one line issued per cycle
	}
	return done
}

// coreBus is one hart's view of the address space: cached DRAM plus
// uncached MMIO windows.
type coreBus struct {
	s   *SoC
	l1i *cache.Cache
	l1d *cache.Cache
	now clock.Cycles

	// Fetch-line memo: remembers where in the L1I the last-fetched line
	// sits so sequential fetches within one line skip the full set scan.
	// Validity is guarded by the cache's residency generation, which
	// advances on every refill/flush/restore.
	memoOff    bool
	fetchValid bool
	fetchLine  uint64
	fetchSet   int
	fetchWay   int
	fetchGen   uint64
	// Second memo entry (the previously fetched line). A loop whose body
	// straddles a line boundary alternates between two lines every lap;
	// with a single entry each crossing pays a full set scan.
	fetch2Valid bool
	fetch2Line  uint64
	fetch2Set   int
	fetch2Way   int
	fetch2Gen   uint64
	ilineBytes  uint64
	ilineShift  uint // log2(ilineBytes) when it is a power of two, else 0
	ihitLat     clock.Cycles
}

// lineIndex maps a DRAM offset to its I-line index, by shift when the
// line size is a power of two (the hot fetch path; a 64-bit divide is an
// order of magnitude slower than a shift on most hosts).
func (b *coreBus) lineIndex(off uint64) uint64 {
	if b.ilineShift != 0 {
		return off >> b.ilineShift
	}
	return off / b.ilineBytes
}

// Fetch implements riscv.Bus.
func (b *coreBus) Fetch(addr uint64) (uint32, clock.Cycles) {
	if addr < DRAMBase {
		panic(fmt.Sprintf("soc: instruction fetch outside DRAM at %#x", addr))
	}
	off := dramOffset(addr)
	done := b.fetchTiming(off)
	var v uint32
	if x, ok := b.s.dram.LoadLE(off, 4); ok {
		v = uint32(x)
	} else {
		var w [4]byte
		b.s.dram.ReadBytes(off, w[:])
		v = uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16 | uint32(w[3])<<24
	}
	// Hit latency 1 is already the pipeline's steady state; report only
	// the cycles beyond a hit as stall.
	lat := done - b.now - b.ihitLat
	if lat < 0 {
		lat = 0
	}
	return v, lat
}

// fetchTiming charges the L1I for a fetch at off. When either memo entry
// proves the line still resident at the remembered way (same residency
// generation), Touch replays the hit path without the set scan; otherwise
// the full Access runs and the memo is refreshed — after Access the line
// is always resident, so Lookup cannot fail.
func (b *coreBus) fetchTiming(off uint64) clock.Cycles {
	if b.memoOff {
		return b.l1i.Access(b.now, off, false)
	}
	line := b.lineIndex(off)
	if b.fetchValid && line == b.fetchLine && b.fetchGen == b.l1i.Gen() {
		return b.l1i.Touch(b.now, b.fetchSet, b.fetchWay, false)
	}
	if b.fetch2Valid && line == b.fetch2Line && b.fetch2Gen == b.l1i.Gen() {
		b.swapFetchMemo()
		return b.l1i.Touch(b.now, b.fetchSet, b.fetchWay, false)
	}
	done := b.l1i.Access(b.now, off, false)
	if set, way, ok := b.l1i.Lookup(off); ok {
		b.demoteFetchMemo()
		b.fetchLine, b.fetchSet, b.fetchWay = line, set, way
		b.fetchGen = b.l1i.Gen()
		b.fetchValid = true
	}
	return done
}

// swapFetchMemo promotes the secondary memo entry to primary (MRU order).
func (b *coreBus) swapFetchMemo() {
	b.fetchValid, b.fetch2Valid = b.fetch2Valid, b.fetchValid
	b.fetchLine, b.fetch2Line = b.fetch2Line, b.fetchLine
	b.fetchSet, b.fetch2Set = b.fetch2Set, b.fetchSet
	b.fetchWay, b.fetch2Way = b.fetch2Way, b.fetchWay
	b.fetchGen, b.fetch2Gen = b.fetch2Gen, b.fetchGen
}

// demoteFetchMemo moves the primary memo entry to the secondary slot
// ahead of the primary being overwritten with a fresh line.
func (b *coreBus) demoteFetchMemo() {
	b.fetch2Valid = b.fetchValid
	b.fetch2Line = b.fetchLine
	b.fetch2Set = b.fetchSet
	b.fetch2Way = b.fetchWay
	b.fetch2Gen = b.fetchGen
}

// FetchFast implements riscv.FetchFaster: when the line holding addr is
// provably still resident in the L1I at the memoized way, replay the
// fetch timing — cache metadata mutations included — without the
// functional read (the caller already holds the instruction word).
// Returning ok=false performs no side effects.
func (b *coreBus) FetchFast(addr uint64) (clock.Cycles, bool) {
	if b.memoOff || addr < DRAMBase {
		return 0, false
	}
	off := dramOffset(addr)
	line := b.lineIndex(off)
	if !b.fetchValid || line != b.fetchLine || b.fetchGen != b.l1i.Gen() {
		if !b.fetch2Valid || line != b.fetch2Line || b.fetch2Gen != b.l1i.Gen() {
			return 0, false
		}
		b.swapFetchMemo()
	}
	done := b.l1i.Touch(b.now, b.fetchSet, b.fetchWay, false)
	lat := done - b.now - b.ihitLat
	if lat < 0 {
		lat = 0
	}
	return lat, true
}

// FetchSpan implements riscv.FetchSpanner: replay k consecutive same-line
// instruction fetches starting at addr in O(1) when the line is provably
// resident at a memoized way. The batched TouchN is bit-identical to k
// sequential Touch calls, and each fetch's reported stall is zero (the
// hit path always is: done - now - ihitLat == 0). Returning false
// performs no side effects.
func (b *coreBus) FetchSpan(addr uint64, k int) bool {
	if b.memoOff || addr < DRAMBase {
		return false
	}
	off := dramOffset(addr)
	line := b.lineIndex(off)
	if !b.fetchValid || line != b.fetchLine || b.fetchGen != b.l1i.Gen() {
		if !b.fetch2Valid || line != b.fetch2Line || b.fetch2Gen != b.l1i.Gen() {
			return false
		}
		b.swapFetchMemo()
	}
	b.l1i.TouchN(b.fetchSet, b.fetchWay, k)
	return true
}

// ILineBytes implements riscv.FetchSpanner: the instruction-line size,
// used at superblock build time to chunk fetch spans by line.
func (b *coreBus) ILineBytes() uint64 { return b.ilineBytes }

// Load implements riscv.Bus.
func (b *coreBus) Load(addr uint64, size int) (uint64, clock.Cycles) {
	if dev, off, ok := b.s.decodeMMIO(addr); ok {
		b.s.tripFastWindow(b.now)
		return dev.MMIOLoad(b.now, off), mmioLatency
	}
	if addr < DRAMBase {
		panic(fmt.Sprintf("soc: load outside DRAM at %#x", addr))
	}
	off := dramOffset(addr)
	done := b.l1d.Access(b.now, off, false)
	v, ok := b.s.dram.LoadLE(off, size)
	if !ok {
		// Chunk-straddling access: stage through a buffer.
		buf := make([]byte, size)
		b.s.dram.ReadBytes(off, buf)
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(buf[i])
		}
	}
	return v, done - b.now
}

// Store implements riscv.Bus.
func (b *coreBus) Store(addr uint64, size int, v uint64) clock.Cycles {
	if addr == PowerOff {
		b.s.tripFastWindow(b.now)
		b.s.halted = true
		return 1
	}
	if dev, off, ok := b.s.decodeMMIO(addr); ok {
		b.s.tripFastWindow(b.now)
		dev.MMIOStore(b.now, off, v)
		return mmioLatency
	}
	if addr >= UARTBase && addr < UARTBase+mmioWindow {
		b.s.console = append(b.s.console, byte(v))
		return mmioLatency
	}
	if addr < DRAMBase {
		panic(fmt.Sprintf("soc: store outside DRAM at %#x", addr))
	}
	off := dramOffset(addr)
	done := b.l1d.Access(b.now, off, true)
	if !b.s.dram.StoreLE(off, size, v) {
		buf := make([]byte, size)
		for i := 0; i < size; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		b.s.dram.WriteBytes(off, buf)
	}
	// The store may have overwritten code another hart predecoded.
	b.s.invalidateDecode(addr, size)
	return done - b.now
}

// decodeMMIO resolves an address to a device window.
func (s *SoC) decodeMMIO(addr uint64) (Device, uint64, bool) {
	switch {
	case addr >= NICBase && addr < NICBase+mmioWindow:
		return nicDevice{s.nic}, addr - NICBase, true
	case addr >= BlockDevBase && addr < BlockDevBase+mmioWindow:
		return bdevDevice{s.bdev}, addr - BlockDevBase, true
	}
	// Binary search the sorted slots for the window containing addr.
	if i := sort.Search(len(s.devices), func(i int) bool { return s.devices[i].base > addr }); i > 0 {
		if sl := &s.devices[i-1]; addr-sl.base < mmioWindow {
			return sl.dev, addr - sl.base, true
		}
	}
	return nil, 0, false
}

// nicDevice adapts the NIC's MMIO interface to the Device shape.
type nicDevice struct{ n *nic.NIC }

func (d nicDevice) MMIOLoad(now clock.Cycles, off uint64) uint64     { return d.n.MMIOLoad(off) }
func (d nicDevice) MMIOStore(now clock.Cycles, off uint64, v uint64) { d.n.MMIOStore(off, v) }
func (d nicDevice) IntrPending() bool                                { return d.n.IntrPending() }

// bdevDevice adapts the block device likewise.
type bdevDevice struct{ b *blockdev.Device }

func (d bdevDevice) MMIOLoad(now clock.Cycles, off uint64) uint64     { return d.b.MMIOLoad(now, off) }
func (d bdevDevice) MMIOStore(now clock.Cycles, off uint64, v uint64) { d.b.MMIOStore(off, v) }
func (d bdevDevice) IntrPending() bool                                { return d.b.IntrPending() }
