// Package dram implements the cycle-accurate DRAM timing model that backs
// each simulated server blade.
//
// In FireSim, the target's 16 GiB DDR3 memory is modeled by a synthesizable
// timing model (from MIDAS) in front of the host FPGA's on-board DRAM, with
// parameters that model DDR3. Here the functional storage is host memory
// and the timing model is this package: a bank/row state machine with DDR3
// timing parameters expressed in *target core cycles* (3.2 GHz), an
// open-page row-buffer policy, and a shared data bus that bounds streaming
// bandwidth.
//
// The model is event-timed rather than ticked: Access(now, ...) computes
// the completion cycle of a line transfer given the controller state at
// `now` and advances that state. A blocking in-order core plus a DMA engine
// produce at most a few outstanding requests, which the shared-bus
// serialisation handles; the observable behaviour (row hits vs misses,
// ~12.8 GB/s streaming ceiling) matches a queued FR-FCFS controller for
// these access streams.
package dram

import (
	"encoding/binary"
	"fmt"

	"repro/internal/clock"
)

// Config holds DDR3-style timing parameters in target core cycles.
//
// The defaults model one channel of DDR3-1600 as seen from a 3.2 GHz core:
// the memory clock is 800 MHz (4 core cycles per memory cycle), the data
// bus moves 8 bytes per memory half-cycle (DDR), i.e. 4 bytes per core
// cycle = 12.8 GB/s, and the CAS/RCD/RP latencies are 11 memory cycles
// (13.75 ns) = 44 core cycles each.
type Config struct {
	// CapacityBytes is the DRAM size (Table I: 16 GiB).
	CapacityBytes uint64
	// Banks is the number of banks in the rank.
	Banks int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes uint64
	// LineBytes is the transfer granularity (one burst).
	LineBytes uint64
	// TRCD is ACTIVATE-to-READ/WRITE delay in core cycles.
	TRCD clock.Cycles
	// TCAS is READ-to-data delay in core cycles.
	TCAS clock.Cycles
	// TRP is PRECHARGE delay in core cycles.
	TRP clock.Cycles
	// BusCyclesPerLine is data-bus occupancy per line in core cycles
	// (LineBytes / bytes-per-core-cycle).
	BusCyclesPerLine clock.Cycles
}

// DefaultConfig returns the DDR3-1600 configuration used for all server
// blades (Table I: 16 GiB DDR3).
func DefaultConfig() Config {
	return Config{
		CapacityBytes:    16 << 30,
		Banks:            8,
		RowBytes:         8 << 10,
		LineBytes:        64,
		TRCD:             44,
		TCAS:             44,
		TRP:              44,
		BusCyclesPerLine: 16, // 64 B at 4 B per core cycle = 12.8 GB/s
	}
}

// Stats counts controller activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// BusBusyCycles accumulates data-bus occupancy, from which achieved
	// bandwidth can be computed.
	BusBusyCycles clock.Cycles
}

type bank struct {
	openRow int64 // -1 when precharged
	readyAt clock.Cycles
}

// Model is a single-channel DRAM timing model plus functional backing
// store.
type Model struct {
	cfg   Config
	banks []bank
	// busFreeAt is the cycle at which the shared data bus next frees.
	busFreeAt clock.Cycles
	stats     Stats

	// mem is the functional backing store, allocated sparsely in 64 KiB
	// chunks so a 16 GiB target footprint does not require 16 GiB of host
	// memory.
	mem map[uint64][]byte
}

const chunkShift = 16 // 64 KiB functional chunks
const chunkSize = 1 << chunkShift

// New builds a model; zero-value fields in cfg take defaults.
func New(cfg Config) *Model {
	d := DefaultConfig()
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = d.CapacityBytes
	}
	if cfg.Banks == 0 {
		cfg.Banks = d.Banks
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = d.RowBytes
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = d.LineBytes
	}
	if cfg.TRCD == 0 {
		cfg.TRCD = d.TRCD
	}
	if cfg.TCAS == 0 {
		cfg.TCAS = d.TCAS
	}
	if cfg.TRP == 0 {
		cfg.TRP = d.TRP
	}
	if cfg.BusCyclesPerLine == 0 {
		cfg.BusCyclesPerLine = d.BusCyclesPerLine
	}
	m := &Model{
		cfg:   cfg,
		banks: make([]bank, cfg.Banks),
		mem:   make(map[uint64][]byte),
	}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	return m
}

// bankAndRow decomposes an address: line-interleaved across banks, rows
// above that, which gives streaming accesses bank-level parallelism.
func (m *Model) bankAndRow(addr uint64) (int, int64) {
	line := addr / m.cfg.LineBytes
	b := int(line % uint64(m.cfg.Banks))
	row := int64(addr / (m.cfg.RowBytes * uint64(m.cfg.Banks)))
	return b, row
}

// Access models the timing of one line-granularity transfer beginning no
// earlier than cycle now, returning the cycle at which the data transfer
// completes. It advances bank and bus state.
func (m *Model) Access(now clock.Cycles, addr uint64, write bool) clock.Cycles {
	if addr >= m.cfg.CapacityBytes {
		panic(fmt.Sprintf("dram: address %#x beyond capacity %#x", addr, m.cfg.CapacityBytes))
	}
	b, row := m.bankAndRow(addr)
	bk := &m.banks[b]

	start := now
	if bk.readyAt > start {
		start = bk.readyAt
	}

	var cmdDone clock.Cycles
	switch {
	case bk.openRow == row:
		// Row hit: CAS only.
		m.stats.RowHits++
		cmdDone = start + m.cfg.TCAS
	case bk.openRow == -1:
		// Bank precharged: ACTIVATE then CAS.
		m.stats.RowMisses++
		cmdDone = start + m.cfg.TRCD + m.cfg.TCAS
	default:
		// Row conflict: PRECHARGE, ACTIVATE, CAS.
		m.stats.RowMisses++
		cmdDone = start + m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS
	}
	bk.openRow = row

	// The data burst needs the shared bus.
	burstStart := cmdDone
	if m.busFreeAt > burstStart {
		burstStart = m.busFreeAt
	}
	done := burstStart + m.cfg.BusCyclesPerLine
	m.busFreeAt = done
	bk.readyAt = done
	m.stats.BusBusyCycles += m.cfg.BusCyclesPerLine

	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	return done
}

// --- functional backing store ---

func (m *Model) chunk(addr uint64) []byte {
	key := addr >> chunkShift
	c, ok := m.mem[key]
	if !ok {
		c = make([]byte, chunkSize)
		m.mem[key] = c
	}
	return c
}

// ReadBytes copies len(buf) bytes of functional state at addr into buf.
func (m *Model) ReadBytes(addr uint64, buf []byte) {
	if addr+uint64(len(buf)) > m.cfg.CapacityBytes {
		panic(fmt.Sprintf("dram: functional read [%#x,+%d) beyond capacity", addr, len(buf)))
	}
	for n := 0; n < len(buf); {
		c := m.chunk(addr + uint64(n))
		off := int((addr + uint64(n)) & (chunkSize - 1))
		k := copy(buf[n:], c[off:])
		n += k
	}
}

// WriteBytes stores buf into functional state at addr.
func (m *Model) WriteBytes(addr uint64, buf []byte) {
	if addr+uint64(len(buf)) > m.cfg.CapacityBytes {
		panic(fmt.Sprintf("dram: functional write [%#x,+%d) beyond capacity", addr, len(buf)))
	}
	for n := 0; n < len(buf); {
		c := m.chunk(addr + uint64(n))
		off := int((addr + uint64(n)) & (chunkSize - 1))
		k := copy(c[off:], buf[n:])
		n += k
	}
}

// LoadLE reads a little-endian value of 1, 2, 4 or 8 bytes that does not
// cross a functional chunk boundary, without staging through a temporary
// buffer. ok=false means the access straddles a chunk (or size is odd) and
// the caller must fall back to ReadBytes.
func (m *Model) LoadLE(addr uint64, size int) (v uint64, ok bool) {
	if addr+uint64(size) > m.cfg.CapacityBytes {
		panic(fmt.Sprintf("dram: functional read [%#x,+%d) beyond capacity", addr, size))
	}
	off := addr & (chunkSize - 1)
	if off+uint64(size) > chunkSize {
		return 0, false
	}
	c := m.chunk(addr)
	switch size {
	case 1:
		return uint64(c[off]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(c[off:])), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(c[off:])), true
	case 8:
		return binary.LittleEndian.Uint64(c[off:]), true
	}
	return 0, false
}

// StoreLE writes the low size bytes of v little-endian at addr when the
// access fits inside one functional chunk. ok=false means the caller must
// fall back to WriteBytes.
func (m *Model) StoreLE(addr uint64, size int, v uint64) (ok bool) {
	if addr+uint64(size) > m.cfg.CapacityBytes {
		panic(fmt.Sprintf("dram: functional write [%#x,+%d) beyond capacity", addr, size))
	}
	off := addr & (chunkSize - 1)
	if off+uint64(size) > chunkSize {
		return false
	}
	c := m.chunk(addr)
	switch size {
	case 1:
		c[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(c[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(c[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(c[off:], v)
	default:
		return false
	}
	return true
}

// Read64 reads an 8-byte little-endian word of functional state.
func (m *Model) Read64(addr uint64) uint64 {
	var b [8]byte
	m.ReadBytes(addr, b[:])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Write64 writes an 8-byte little-endian word of functional state.
func (m *Model) Write64(addr uint64, v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	m.WriteBytes(addr, b[:])
}
