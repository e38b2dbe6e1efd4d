package riscv

import "repro/internal/clock"

// Superblock interpreter: decode-once, execute-many threaded dispatch on
// top of the predecode cache. A superblock chains consecutive predecoded
// entries starting at some PC — conditional branches do not end a block
// (the fall-through path continues inside it; a taken branch chains to the
// target's block through the dispatcher) — and ends at an unconditional
// control transfer, a system/fence instruction, a cold decode entry, or
// sbMaxLen instructions.
//
// Everything here is derived state, rebuilt lazily from memory, and is
// deliberately excluded from FSNP snapshot streams exactly like the
// predecode cache: blocks cache only the decoding of words that still sit
// in DRAM, so dropping them can never change an architectural observable,
// and a restore (which calls InvalidateDecodeAll) starts cold.
//
// Invalidation rides the existing SMC machinery. Live blocks collectively
// maintain an address envelope [sbLo, sbHi); any invalidated range that
// overlaps the envelope bumps sbVer, which the dispatcher checks after
// every instruction, so a store into block N+1's code while block N is
// executing — or into the running block itself — exits dispatch before
// the stale word could issue. Ordinary data stores (outside the envelope)
// cost two compares.
const (
	sbBits = 10
	sbSize = 1 << sbBits
	sbMask = sbSize - 1
	// sbMaxLen bounds block length so a single dispatch stays a small
	// fraction of a token window.
	sbMaxLen = 32
)

// sbEntry is one chained instruction, packed to 32 bytes so a typical
// block spans few host cache lines. The cracked fields widen to uint32 at
// the exec1 call for free (zero-extending loads).
type sbEntry struct {
	pc   uint64
	imm  uint64
	word uint32
	// spanCost is the total cost of the fetch span starting
	// here (valid when spanLen > 0); see buildBlock.
	spanCost uint16
	op       uint8
	rd       uint8
	rs1      uint8
	rs2      uint8
	f3       uint8
	f7       uint8
	// spanLen counts the consecutive span-pure entries starting here that
	// share one I-line: eligible for one batched FetchSpan call.
	spanLen uint8
	_       [2]uint8
}

type superblock struct {
	pc      uint64
	ver     uint64
	entries []sbEntry
	valid   bool
}

// SetSuperblocks enables or disables the superblock dispatcher (default
// on). Superblocks build on the predecode cache: with SetDecodeCache(false)
// no blocks can form and StepBlock degrades to a no-op. Disabling drops all
// built blocks, so re-enabling starts cold.
func (c *CPU) SetSuperblocks(on bool) {
	c.sbOn = on
	if !on {
		c.sb = nil
		c.sbLo, c.sbHi = 0, 0
	}
}

// SuperblockInstret reports how many instructions retired through block
// dispatch (observability only; excluded from Stats and snapshots).
func (c *CPU) SuperblockInstret() uint64 { return c.sbInstret }

// BindWindow attaches the compute-window plumbing the SoC scheduler uses
// during block dispatch: *now is advanced to each instruction's start
// cycle before any bus access, and *stop, when set true by the bus
// mid-dispatch (an MMIO access tripped the window), ends StepBlock after
// the current instruction. Either may be nil.
func (c *CPU) BindWindow(now *clock.Cycles, stop *bool) {
	c.winNow = now
	c.winStop = stop
}

// killBlocksRange drops every superblock overlapping [addr, addr+n).
// Blocks record only their collective envelope, so an overlapping write
// conservatively kills all of them via a version bump; the dispatcher
// re-checks the version after each instruction.
func (c *CPU) killBlocksRange(addr uint64, n int) {
	if c.sbLo != c.sbHi && addr < c.sbHi && addr+uint64(n) > c.sbLo {
		c.sbVer++
		c.sbLo, c.sbHi = 0, 0
	}
}

// killBlocksAll drops every superblock (fence.i, snapshot restore, bulk
// DMA, stale-word refetch).
func (c *CPU) killBlocksAll() {
	if c.sbLo != c.sbHi {
		c.sbVer++
		c.sbLo, c.sbHi = 0, 0
	}
}

// lookupBlock returns a live superblock starting at pc, building one from
// the predecode cache if needed, or nil when the entry at pc is cold.
func (c *CPU) lookupBlock(pc uint64) *superblock {
	if c.sb == nil {
		c.sb = make([]superblock, sbSize)
	}
	b := &c.sb[(pc>>2)&sbMask]
	if b.valid && b.pc == pc && b.ver == c.sbVer {
		return b
	}
	return c.buildBlock(b, pc)
}

// buildBlock forms a superblock at pc from consecutive valid predecoded
// entries. It reuses the slot's entry storage across rebuilds.
func (c *CPU) buildBlock(b *superblock, pc uint64) *superblock {
	entries := b.entries[:0]
	p := pc
	for len(entries) < sbMaxLen {
		d := &c.dec[(p>>2)&decMask]
		if !d.valid || d.pc != p {
			break
		}
		entries = append(entries, sbEntry{pc: p, imm: d.imm, word: d.word,
			op: uint8(d.op), rd: uint8(d.rd), rs1: uint8(d.rs1), rs2: uint8(d.rs2),
			f3: uint8(d.f3), f7: uint8(d.f7)})
		if blockEnds(d.op) {
			break
		}
		p += 4
	}
	if len(entries) == 0 {
		b.valid = false
		b.entries = entries
		return nil
	}
	if c.spanBus != nil {
		c.formSpans(entries)
	}
	*b = superblock{pc: pc, ver: c.sbVer, entries: entries, valid: true}
	end := entries[len(entries)-1].pc + 4
	if c.sbLo == c.sbHi {
		c.sbLo, c.sbHi = pc, end
	} else {
		if pc < c.sbLo {
			c.sbLo = pc
		}
		if end > c.sbHi {
			c.sbHi = end
		}
	}
	return b
}

// formSpans annotates entries with fetch-span runs, walking backwards so
// each entry extends its successor's run. A span is a maximal run of
// span-pure instructions within one I-line; the dispatcher replays all of
// a span's fetches in one FetchSpan call and executes its instructions
// with no per-instruction exit checks (none can fire; see StepBlock).
// spanCost accumulates each instruction's cost, which for pure ops is fully
// determined at build time: costBase (+ costMul/costDiv for multiplies and
// divides) plus a zero fetch stall.
func (c *CPU) formSpans(entries []sbEntry) {
	mask := c.spanMask
	for i := len(entries) - 1; i >= 0; i-- {
		e := &entries[i]
		if !spanPure(e.op, e.f3, e.f7) {
			continue
		}
		cost := costBase
		if e.f7 == 1 {
			switch uint32(e.op) {
			case opReg:
				if e.f3 < 4 {
					cost += costMul
				} else {
					cost += costDiv
				}
			case opReg32:
				if e.f3 == 0 {
					cost += costMul
				} else {
					cost += costDiv
				}
			}
		}
		e.spanLen, e.spanCost = 1, uint16(cost)
		if i+1 < len(entries) {
			n := &entries[i+1]
			if n.spanLen > 0 && n.spanLen < 0xff && n.pc&mask == e.pc&mask {
				e.spanLen = n.spanLen + 1
				e.spanCost += n.spanCost
			}
		}
	}
}

// spanPure reports whether a cracked instruction is span-eligible: it
// performs no bus access, cannot transfer control and cannot trap (the
// illegal-instruction paths in the 32-bit ops are excluded), so executing
// it can neither end the dispatch loop nor touch anything outside the
// register file. Its cost is then fully determined at decode time.
func spanPure(op, f3, f7 uint8) bool {
	switch uint32(op) {
	case opLUI, opAUIPC, opImm, opReg:
		return true
	case opImm32:
		return f3 == 0 || f3 == 1 || f3 == 5
	case opReg32:
		if f7 == 1 {
			return f3 == 0 || f3 >= 4
		}
		return f3 == 0 || f3 == 1 || f3 == 5
	}
	return false
}

// blockEnds reports whether op terminates block formation: unconditional
// transfers always leave the block, and system/fence instructions can
// change interrupt/decode state mid-stream, so they end it conservatively.
func blockEnds(op uint32) bool {
	switch op {
	case opJAL, opJALR, opSystem, opFence:
		return true
	}
	return false
}

// StepBlock executes superblocks starting at the current PC until an exit
// condition: budget cycles of instruction start-times consumed, a WFI or
// halt, a trip signalled through BindWindow (MMIO), a block invalidation,
// or a transfer into cold code. It returns the cycles consumed (the last
// instruction may run past budget, exactly as a slow-path instruction
// started on the window's final cycle would); 0 means no block could run
// and the caller should fall back to Step.
//
// Cycle-exactness contract with the per-cycle path: before every
// instruction the hart's Cycle and the bus clock are advanced to that
// instruction's start cycle and the external interrupt pending bit is
// deasserted — the per-cycle loop does exactly this each cycle of a
// compute-only window (the line is known low for the whole window, and
// the clear is idempotent, so once per instruction boundary is identical
// to once per cycle). Fetch side effects replay through the same
// FetchFast/Fetch calls Step makes, and execution goes through the same
// exec1, so every checkpointed observable matches the slow path bit for
// bit.
func (c *CPU) StepBlock(budget clock.Cycles) clock.Cycles {
	if !c.sbOn || c.dec == nil || budget <= 0 || c.Halted || c.WaitingForInterrupt {
		return 0
	}
	fast := c.fastBus
	spanBus := c.spanBus
	winNow := c.winNow
	winStop := c.winStop
	base := c.Cycle
	now := base
	var used clock.Cycles
	var retired uint64
	defer func() {
		c.sbInstret += retired
		// Land the hart's cycle counter on the last executed instruction's
		// start cycle, exactly where the per-cycle path leaves it. During
		// dispatch it lives in a register; only opSystem entries can read
		// it mid-block (CSR mcycle) and those get an eager store below.
		c.Cycle = now
	}()
	for {
		b := c.lookupBlock(c.PC)
		if b == nil {
			return used
		}
		bVer := b.ver
		// Deassert the external line once per block: the per-cycle loop
		// clears it before every step, but inside a block body no
		// instruction can set MEIP (opSystem ends block formation), so one
		// clear per block boundary is identical.
		c.MIP &^= MIPMEIP
		entries := b.entries
		for ei := 0; ei < len(entries); ei++ {
			e := &entries[ei]
			now = base + used

			// Fetch-span fast path: a run of span-pure instructions in one
			// I-line replays all its fetch side effects in a single batched
			// call and executes with no per-instruction exit checks. None
			// can fire inside the run: no bus access means no window trip
			// and no store-driven invalidation, span-pure ops cannot trap,
			// halt, WFI or branch (PC provably advances +4 each), and the
			// build-time spanCost precheck proves every instruction starts
			// within budget. The bus clock (*winNow) can go stale during
			// the run because only bus accesses read it.
			if e.spanLen > 1 && spanBus != nil &&
				used+clock.Cycles(e.spanCost) <= budget && spanBus.FetchSpan(e.pc, int(e.spanLen)) {
				end := ei + int(e.spanLen)
				var cost clock.Cycles
				for j := ei; j < end; j++ {
					se := &entries[j]
					cost = c.exec1(se.word, uint32(se.op), uint32(se.rd), uint32(se.rs1), uint32(se.rs2),
						uint32(se.f3), uint32(se.f7), se.imm, 0)
					used += cost
				}
				retired += uint64(end - ei)
				now = base + used - cost
				ei = end - 1
				if used >= budget {
					return used
				}
				continue
			}

			if winNow != nil {
				*winNow = now
			}
			if e.op == uint8(opSystem) {
				c.Cycle = now
			}

			var fetchLat clock.Cycles
			ok := false
			if fast != nil {
				fetchLat, ok = fast.FetchFast(e.pc)
			}
			if !ok {
				// No fast bus (or line not provably resident): full fetch,
				// with the same stale-word guard fetchPredecode applies.
				word, lat := c.bus.Fetch(e.pc)
				fetchLat = lat
				if word != e.word {
					c.killBlocksAll()
					op := word & 0x7f
					rd := word >> 7 & 0x1f
					rs1 := word >> 15 & 0x1f
					rs2 := word >> 20 & 0x1f
					f3 := word >> 12 & 7
					f7 := word >> 25
					imm := crackImm(op, word)
					c.dec[(e.pc>>2)&decMask] = decEntry{pc: e.pc, imm: imm, word: word, valid: true,
						op: op, rd: rd, rs1: rs1, rs2: rs2, f3: f3, f7: f7}
					if op == opSystem {
						c.Cycle = now
					}
					cost := c.exec1(word, op, rd, rs1, rs2, f3, f7, imm, fetchLat)
					retired++
					return used + cost
				}
			}
			cost := c.exec1(e.word, uint32(e.op), uint32(e.rd), uint32(e.rs1), uint32(e.rs2),
				uint32(e.f3), uint32(e.f7), e.imm, fetchLat)
			used += cost
			retired++
			if winStop != nil && *winStop {
				return used
			}
			if c.sbVer != bVer {
				// A store invalidated code; PC already points past the
				// retired instruction, so the caller resumes exactly there.
				return used
			}
			if used >= budget {
				return used
			}
			if c.PC != e.pc+4 {
				break // control transfer: chain to the target's block
			}
		}
		// Halt and WFI can only arise from an opSystem instruction, which
		// always ends its block — one check per block is therefore exact.
		if c.Halted || c.WaitingForInterrupt {
			return used
		}
	}
}
