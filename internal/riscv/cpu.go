package riscv

import (
	"fmt"

	"repro/internal/clock"
)

// Bus is the core's view of the memory system: loads, stores and fetches
// return the accessed value together with the access latency in cycles,
// driven by the cache/DRAM hierarchy or MMIO device models.
type Bus interface {
	// Fetch reads a 32-bit instruction at addr.
	Fetch(addr uint64) (word uint32, latency clock.Cycles)
	// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended into a
	// uint64.
	Load(addr uint64, size int) (value uint64, latency clock.Cycles)
	// Store writes the low size bytes of value to addr.
	Store(addr uint64, size int, value uint64) (latency clock.Cycles)
}

// The core's fixed per-instruction costs (beyond memory latency), matching
// a Rocket-class in-order single-issue pipeline. Every instruction costs at
// least costBase, so a step that executes anything takes at least a cycle.
const (
	costBase        clock.Cycles = 1  // a simple ALU instruction
	costBranchTaken clock.Cycles = 2  // extra for a taken branch or jump (pipeline redirect)
	costMul         clock.Cycles = 3  // extra for a multiply
	costDiv         clock.Cycles = 20 // extra for a divide/remainder
)

// Stats counts retired instructions by class.
type Stats struct {
	Instret  uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Traps    uint64
}

// CPU is one RV64IM hart in machine mode.
type CPU struct {
	// X is the integer register file; X[0] is hardwired to zero.
	X  [32]uint64
	PC uint64

	// CSRs.
	MStatus  uint64
	MIE      uint64
	MIP      uint64
	MTVec    uint64
	MEPC     uint64
	MCause   uint64
	MScratch uint64
	HartID   uint64

	// Cycle is the hart's cycle counter, advanced by the SoC scheduler.
	Cycle clock.Cycles

	// Halted is set by EBREAK (simulation power-off) or a trap with no
	// handler installed.
	Halted bool
	// WaitingForInterrupt is set by WFI and cleared when an interrupt
	// becomes pending.
	WaitingForInterrupt bool

	bus   Bus
	stats Stats

	// Predecode fast path (derived state, never snapshotted).
	decodeOn bool
	dec      []decEntry
	fastBus  FetchFaster // bus's optional fast-fetch view, asserted once

	// Superblock fast path (derived state, never snapshotted). Blocks
	// chain predecoded entries for threaded dispatch inside compute-only
	// windows; see superblock.go.
	sbOn       bool
	sb         []superblock
	sbVer      uint64
	sbLo, sbHi uint64        // envelope of code covered by live blocks
	sbInstret  uint64        // instructions retired via block dispatch (observability)
	winNow     *clock.Cycles // window plumbing: bus clock to advance per instruction
	winStop    *bool         // window plumbing: set by the bus mid-dispatch to exit
	spanBus    FetchSpanner  // bus's optional batched-fetch view, asserted once
	spanMask   uint64        // I-line mask for span formation (0 = spans off)
}

// New builds a hart over the given bus, starting at entry. The predecode
// fast path is on by default; SetDecodeCache(false) restores the plain
// fetch-and-crack path.
func New(bus Bus, hartID uint64, entry uint64) *CPU {
	c := &CPU{PC: entry, HartID: hartID, bus: bus, decodeOn: true, sbOn: true}
	c.fastBus, _ = bus.(FetchFaster)
	if sp, ok := bus.(FetchSpanner); ok {
		if lb := sp.ILineBytes(); lb >= 4 && lb&(lb-1) == 0 {
			c.spanBus = sp
			c.spanMask = ^(lb - 1)
		}
	}
	return c
}

// Stats returns a snapshot of the instruction counters.
func (c *CPU) Stats() Stats { return c.stats }

// SetExternalInterrupt drives the machine external interrupt pending bit
// (wired from the NIC and block device interrupt lines).
func (c *CPU) SetExternalInterrupt(pending bool) {
	if pending {
		c.MIP |= MIPMEIP
		c.WaitingForInterrupt = false
	} else {
		c.MIP &^= MIPMEIP
	}
}

func sext(v uint64, bits uint) uint64 {
	shift := 64 - bits
	return uint64(int64(v<<shift) >> shift)
}

// interruptPending reports whether an enabled machine interrupt is
// pending.
func (c *CPU) interruptPending() bool {
	return c.MStatus&MStatusMIE != 0 && c.MIE&c.MIP&MIPMEIP != 0
}

// trap enters the machine trap handler.
func (c *CPU) trap(cause uint64, epc uint64) clock.Cycles {
	c.stats.Traps++
	if c.MTVec == 0 {
		// No handler installed: treat as fatal, like a bare-metal harness
		// spinning in the weeds.
		c.Halted = true
		return costBase
	}
	c.MEPC = epc
	c.MCause = cause
	// mstatus.MPIE <- MIE; MIE <- 0
	if c.MStatus&MStatusMIE != 0 {
		c.MStatus |= MStatusMPIE
	} else {
		c.MStatus &^= MStatusMPIE
	}
	c.MStatus &^= MStatusMIE
	c.PC = c.MTVec
	return costBase + costBranchTaken
}

// Step executes one instruction (or takes one interrupt), returning the
// number of cycles it consumed. Calling Step on a halted core returns 0.
func (c *CPU) Step() clock.Cycles {
	if c.Halted {
		return 0
	}
	if c.interruptPending() {
		c.WaitingForInterrupt = false
		return c.trap(CauseExternalIntr, c.PC)
	}
	if c.WaitingForInterrupt {
		// Idle cycle; WFI burns time until an interrupt arrives.
		return 1
	}

	word, fetchLat, ent, predecoded := c.fetchPredecode()
	var op, rd, rs1, rs2, f3, f7 uint32
	var imm uint64
	if predecoded {
		op, rd, rs1, rs2, f3, f7, imm = ent.op, ent.rd, ent.rs1, ent.rs2, ent.f3, ent.f7, ent.imm
	} else {
		op = word & 0x7f
		rd = word >> 7 & 0x1f
		rs1 = word >> 15 & 0x1f
		rs2 = word >> 20 & 0x1f
		f3 = word >> 12 & 7
		f7 = word >> 25
		imm = crackImm(op, word)
		if ent != nil {
			*ent = decEntry{pc: c.PC, imm: imm, word: word, valid: true,
				op: op, rd: rd, rs1: rs1, rs2: rs2, f3: f3, f7: f7}
		}
	}
	return c.exec1(word, op, rd, rs1, rs2, f3, f7, imm, fetchLat)
}

// crackImm extracts the immediate for op from word, in the exact form the
// executor consumes. Instructions without a (pre-extractable) immediate
// yield 0.
func crackImm(op, word uint32) uint64 {
	switch op {
	case opLUI, opAUIPC:
		return sext(uint64(word&0xfffff000), 32)
	case opJAL:
		return decodeJImm(word)
	case opJALR, opLoad, opImm, opImm32:
		return sext(uint64(word>>20), 12)
	case opBranch:
		return decodeBImm(word)
	case opStore:
		return decodeSImm(word)
	}
	return 0
}

// exec1 executes one already-cracked instruction: the shared semantic core
// behind both Step and the superblock dispatcher, so the fast path cannot
// drift from the slow one. The caller has fetched the word (fetchLat is
// that fetch's stall) and cracked op/rd/rs1/rs2/f3/f7/imm (crackImm).
func (c *CPU) exec1(word, op, rd, rs1, rs2, f3, f7 uint32, imm uint64, fetchLat clock.Cycles) clock.Cycles {
	cost := costBase + fetchLat
	nextPC := c.PC + 4

	r1 := c.X[rs1]
	r2 := c.X[rs2]
	var wb uint64
	writeback := false

	switch op {
	case opLUI:
		wb, writeback = imm, true
	case opAUIPC:
		wb, writeback = c.PC+imm, true
	case opJAL:
		wb, writeback = nextPC, true
		nextPC = c.PC + imm
		cost += costBranchTaken
	case opJALR:
		wb, writeback = nextPC, true
		nextPC = (r1 + imm) &^ 1
		cost += costBranchTaken
	case opBranch:
		c.stats.Branches++
		taken := false
		switch f3 {
		case 0:
			taken = r1 == r2
		case 1:
			taken = r1 != r2
		case 4:
			taken = int64(r1) < int64(r2)
		case 5:
			taken = int64(r1) >= int64(r2)
		case 6:
			taken = r1 < r2
		case 7:
			taken = r1 >= r2
		default:
			return c.illegal(word)
		}
		if taken {
			nextPC = c.PC + imm
			cost += costBranchTaken
		}
	case opLoad:
		c.stats.Loads++
		addr := r1 + imm
		var v uint64
		var lat clock.Cycles
		switch f3 {
		case 0:
			v, lat = c.bus.Load(addr, 1)
			v = sext(v, 8)
		case 1:
			v, lat = c.bus.Load(addr, 2)
			v = sext(v, 16)
		case 2:
			v, lat = c.bus.Load(addr, 4)
			v = sext(v, 32)
		case 3:
			v, lat = c.bus.Load(addr, 8)
		case 4:
			v, lat = c.bus.Load(addr, 1)
		case 5:
			v, lat = c.bus.Load(addr, 2)
		case 6:
			v, lat = c.bus.Load(addr, 4)
		default:
			return c.illegal(word)
		}
		wb, writeback = v, true
		cost += lat
	case opStore:
		c.stats.Stores++
		addr := r1 + imm
		var size int
		switch f3 {
		case 0:
			size = 1
		case 1:
			size = 2
		case 2:
			size = 4
		case 3:
			size = 8
		default:
			return c.illegal(word)
		}
		cost += c.bus.Store(addr, size, r2)
		// Self-modifying code: drop any predecoded entries the store may
		// have overwritten. (Stores by other agents — DMA, other harts —
		// are invalidated by the SoC, which sees every bus store.)
		if c.dec != nil {
			c.InvalidateDecode(addr, size)
		}
	case opImm:
		switch f3 {
		case 0:
			wb = r1 + imm
		case 1:
			wb = r1 << (word >> 20 & 0x3f)
		case 2:
			wb = boolTo64(int64(r1) < int64(imm))
		case 3:
			wb = boolTo64(r1 < imm)
		case 4:
			wb = r1 ^ imm
		case 5:
			sh := word >> 20 & 0x3f
			if word>>26&0x3f == 0x10 {
				wb = uint64(int64(r1) >> sh)
			} else {
				wb = r1 >> sh
			}
		case 6:
			wb = r1 | imm
		case 7:
			wb = r1 & imm
		}
		writeback = true
	case opImm32:
		switch f3 {
		case 0:
			wb = sext(r1+imm, 32)
		case 1:
			wb = sext(r1<<(word>>20&0x1f), 32)
		case 5:
			sh := word >> 20 & 0x1f
			if f7 == 0x20 {
				wb = sext(uint64(int32(r1)>>sh), 32)
			} else {
				wb = sext(uint64(uint32(r1)>>sh), 32)
			}
		default:
			return c.illegal(word)
		}
		writeback = true
	case opReg:
		if f7 == 1 {
			wb = c.mulDiv(f3, r1, r2, &cost)
		} else {
			switch f3 {
			case 0:
				if f7 == 0x20 {
					wb = r1 - r2
				} else {
					wb = r1 + r2
				}
			case 1:
				wb = r1 << (r2 & 0x3f)
			case 2:
				wb = boolTo64(int64(r1) < int64(r2))
			case 3:
				wb = boolTo64(r1 < r2)
			case 4:
				wb = r1 ^ r2
			case 5:
				if f7 == 0x20 {
					wb = uint64(int64(r1) >> (r2 & 0x3f))
				} else {
					wb = r1 >> (r2 & 0x3f)
				}
			case 6:
				wb = r1 | r2
			case 7:
				wb = r1 & r2
			}
		}
		writeback = true
	case opReg32:
		if f7 == 1 {
			wb = c.mulDiv32(f3, r1, r2, &cost)
		} else {
			switch f3 {
			case 0:
				if f7 == 0x20 {
					wb = sext(r1-r2, 32)
				} else {
					wb = sext(r1+r2, 32)
				}
			case 1:
				wb = sext(r1<<(r2&0x1f), 32)
			case 5:
				if f7 == 0x20 {
					wb = sext(uint64(int32(r1)>>(r2&0x1f)), 32)
				} else {
					wb = sext(uint64(uint32(r1)>>(r2&0x1f)), 32)
				}
			default:
				return c.illegal(word)
			}
		}
		writeback = true
	case opFence:
		// Plain FENCE is an ordering no-op on this single-hart model.
		// FENCE.I (f3=1) synchronises the instruction stream with prior
		// stores: the predecode cache must be rebuilt from memory.
		if f3 == 1 {
			c.InvalidateDecodeAll()
		}
	case opSystem:
		sysImm := word >> 20
		switch {
		case f3 == 0 && sysImm == 0: // ECALL
			return c.trap(CauseECall, c.PC)
		case f3 == 0 && sysImm == 1: // EBREAK: simulation power-off
			c.Halted = true
		case f3 == 0 && sysImm == 0x105: // WFI
			if !c.interruptPending() && c.MIP&c.MIE == 0 {
				c.WaitingForInterrupt = true
			}
		case f3 == 0 && sysImm == 0x302: // MRET
			if c.MStatus&MStatusMPIE != 0 {
				c.MStatus |= MStatusMIE
			} else {
				c.MStatus &^= MStatusMIE
			}
			c.MStatus |= MStatusMPIE
			nextPC = c.MEPC
			cost += costBranchTaken
		case f3 >= 1 && f3 <= 3: // CSRRW/CSRRS/CSRRC
			csr := sysImm
			old := c.readCSR(csr)
			var nv uint64
			switch f3 {
			case 1:
				nv = r1
			case 2:
				nv = old | r1
			case 3:
				nv = old &^ r1
			}
			if f3 == 1 || rs1 != 0 {
				c.writeCSR(csr, nv)
			}
			wb, writeback = old, true
		default:
			return c.illegal(word)
		}
	default:
		return c.illegal(word)
	}

	if writeback && rd != 0 {
		c.X[rd] = wb
	}
	c.X[0] = 0
	c.PC = nextPC
	c.stats.Instret++
	return cost
}

func (c *CPU) illegal(word uint32) clock.Cycles {
	panic(fmt.Sprintf("riscv: illegal instruction %#08x at pc %#x", word, c.PC))
}

func (c *CPU) mulDiv(f3 uint32, r1, r2 uint64, cost *clock.Cycles) uint64 {
	switch f3 {
	case 0:
		*cost += costMul
		return r1 * r2
	case 1: // MULH
		*cost += costMul
		return mulh(int64(r1), int64(r2))
	case 2: // MULHSU
		*cost += costMul
		return mulhsu(int64(r1), r2)
	case 3: // MULHU
		*cost += costMul
		return mulhu(r1, r2)
	case 4: // DIV
		*cost += costDiv
		if r2 == 0 {
			return ^uint64(0)
		}
		if int64(r1) == -1<<63 && int64(r2) == -1 {
			return r1
		}
		return uint64(int64(r1) / int64(r2))
	case 5: // DIVU
		*cost += costDiv
		if r2 == 0 {
			return ^uint64(0)
		}
		return r1 / r2
	case 6: // REM
		*cost += costDiv
		if r2 == 0 {
			return r1
		}
		if int64(r1) == -1<<63 && int64(r2) == -1 {
			return 0
		}
		return uint64(int64(r1) % int64(r2))
	default: // REMU
		*cost += costDiv
		if r2 == 0 {
			return r1
		}
		return r1 % r2
	}
}

func (c *CPU) mulDiv32(f3 uint32, r1, r2 uint64, cost *clock.Cycles) uint64 {
	a, b := int32(r1), int32(r2)
	switch f3 {
	case 0: // MULW
		*cost += costMul
		return sext(uint64(uint32(a*b)), 32)
	case 4: // DIVW
		*cost += costDiv
		if b == 0 {
			return ^uint64(0)
		}
		if a == -1<<31 && b == -1 {
			return sext(uint64(uint32(a)), 32)
		}
		return sext(uint64(uint32(a/b)), 32)
	case 5: // DIVUW
		*cost += costDiv
		if uint32(b) == 0 {
			return ^uint64(0)
		}
		return sext(uint64(uint32(r1)/uint32(r2)), 32)
	case 6: // REMW
		*cost += costDiv
		if b == 0 {
			return sext(uint64(uint32(a)), 32)
		}
		if a == -1<<31 && b == -1 {
			return 0
		}
		return sext(uint64(uint32(a%b)), 32)
	case 7: // REMUW
		*cost += costDiv
		if uint32(b) == 0 {
			return sext(uint64(uint32(r1)), 32)
		}
		return sext(uint64(uint32(r1)%uint32(r2)), 32)
	default:
		c.illegal(0)
		return 0
	}
}

func mulhu(a, b uint64) uint64 {
	aLo, aHi := a&0xffffffff, a>>32
	bLo, bHi := b&0xffffffff, b>>32
	lo := aLo * bLo
	mid1 := aHi * bLo
	mid2 := aLo * bHi
	hi := aHi * bHi
	carry := (lo>>32 + mid1&0xffffffff + mid2&0xffffffff) >> 32
	return hi + mid1>>32 + mid2>>32 + carry
}

func mulh(a, b int64) uint64 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := mulhu(ua, ub), ua*ub
	if neg {
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	if a >= 0 {
		return mulhu(uint64(a), b)
	}
	hi, lo := mulhu(uint64(-a), b), uint64(-a)*b
	hi = ^hi
	if lo == 0 {
		hi++
	}
	return hi
}

func (c *CPU) readCSR(csr uint32) uint64 {
	switch csr {
	case CSRMStatus:
		return c.MStatus
	case CSRMIE:
		return c.MIE
	case CSRMIP:
		return c.MIP
	case CSRMTVec:
		return c.MTVec
	case CSRMEPC:
		return c.MEPC
	case CSRMCause:
		return c.MCause
	case CSRMScratch:
		return c.MScratch
	case CSRMHartID:
		return c.HartID
	case CSRCycle:
		return uint64(c.Cycle)
	default:
		return 0
	}
}

func (c *CPU) writeCSR(csr uint32, v uint64) {
	switch csr {
	case CSRMStatus:
		c.MStatus = v
	case CSRMIE:
		c.MIE = v
	case CSRMIP:
		c.MIP = v
	case CSRMTVec:
		c.MTVec = v
	case CSRMEPC:
		c.MEPC = v
	case CSRMCause:
		c.MCause = v
	case CSRMScratch:
		c.MScratch = v
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func decodeBImm(w uint32) uint64 {
	imm := w>>31&1<<12 | w>>7&1<<11 | w>>25&0x3f<<5 | w>>8&0xf<<1
	return sext(uint64(imm), 13)
}

func decodeSImm(w uint32) uint64 {
	return sext(uint64(w>>25<<5|w>>7&0x1f), 12)
}

func decodeJImm(w uint32) uint64 {
	imm := w>>31&1<<20 | w>>12&0xff<<12 | w>>20&1<<11 | w>>21&0x3ff<<1
	return sext(uint64(imm), 21)
}
