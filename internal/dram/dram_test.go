package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	m := New(Config{})
	// First access to a bank: precharged -> ACT+CAS+burst.
	d1 := m.Access(0, 0, false)
	want1 := m.cfg.TRCD + m.cfg.TCAS + m.cfg.BusCyclesPerLine
	if d1 != want1 {
		t.Errorf("cold access done at %d, want %d", d1, want1)
	}
	// Second access in the same row (same bank): hit, CAS+burst only,
	// starting when the bank frees.
	d2 := m.Access(d1, 8*64, false) // +8 lines = same bank (8 banks), same row
	if got := d2 - d1; got != m.cfg.TCAS+m.cfg.BusCyclesPerLine {
		t.Errorf("row hit took %d cycles, want %d", got, m.cfg.TCAS+m.cfg.BusCyclesPerLine)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRowConflictSlowest(t *testing.T) {
	m := New(Config{})
	d1 := m.Access(0, 0, false)
	// Same bank, different row: PRE+ACT+CAS+burst.
	rowStride := m.cfg.RowBytes * uint64(m.cfg.Banks)
	d2 := m.Access(d1, rowStride, false)
	want := m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS + m.cfg.BusCyclesPerLine
	if got := d2 - d1; got != want {
		t.Errorf("row conflict took %d cycles, want %d", got, want)
	}
}

func TestBankParallelismHidesLatency(t *testing.T) {
	// Accesses to different banks overlap their ACT/CAS phases; only the
	// shared bus serialises the bursts. Issuing 8 parallel cold accesses at
	// cycle 0 must finish far sooner than 8 serialised cold accesses.
	m := New(Config{})
	var last clock.Cycles
	for i := 0; i < 8; i++ {
		last = m.Access(0, uint64(i)*64, false) // consecutive lines hit all 8 banks
	}
	serial := 8 * (m.cfg.TRCD + m.cfg.TCAS + m.cfg.BusCyclesPerLine)
	if last >= serial {
		t.Errorf("8 banked accesses done at %d, want < serialised %d", last, serial)
	}
	want := m.cfg.TRCD + m.cfg.TCAS + 8*m.cfg.BusCyclesPerLine
	if last != want {
		t.Errorf("banked completion = %d, want latency+8 bursts = %d", last, want)
	}
}

func TestStreamingBandwidthCeiling(t *testing.T) {
	// Stream 1 MiB sequentially with a pipelined requester (each request
	// issued as soon as the previous one is *issued*, like a DMA engine
	// with outstanding reads): steady-state throughput must approach
	// LineBytes/BusCyclesPerLine = 4 B/cycle (12.8 GB/s at 3.2 GHz), the
	// ceiling that explains the bare-metal 100 Gbit/s NIC result.
	m := New(Config{})
	const total = 1 << 20
	var now, done clock.Cycles
	for addr := uint64(0); addr < total; addr += 64 {
		done = m.Access(now, addr, false)
		now++ // issue one request per cycle; the bus is the bottleneck
	}
	bw := float64(total) / float64(done)
	if bw < 3.5 || bw > 4.01 {
		t.Errorf("streaming bandwidth = %.2f B/cycle, want ~4", bw)
	}
}

func TestAccessMonotonicProperty(t *testing.T) {
	// Property: completion cycle is strictly after the request cycle and
	// never decreases when issued in time order.
	m := New(Config{})
	var now, prevDone clock.Cycles
	check := func(addrSeed uint32, gap uint8) bool {
		addr := (uint64(addrSeed) * 64) % (1 << 30)
		now += clock.Cycles(gap)
		done := m.Access(now, addr, addrSeed%2 == 0)
		ok := done > now && done >= prevDone
		prevDone = done
		return ok
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFunctionalRoundTrip(t *testing.T) {
	m := New(Config{})
	data := []byte("the quick brown fox jumps over the lazy dog")
	// Straddle a 64 KiB chunk boundary deliberately.
	addr := uint64(chunkSize - 10)
	m.WriteBytes(addr, data)
	got := make([]byte, len(data))
	m.ReadBytes(addr, got)
	if string(got) != string(data) {
		t.Errorf("round trip = %q", got)
	}
}

func TestRead64Write64(t *testing.T) {
	m := New(Config{})
	check := func(addrSeed uint16, v uint64) bool {
		addr := uint64(addrSeed) * 8
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSparseAllocation(t *testing.T) {
	// Touching two distant addresses must not allocate the whole 16 GiB.
	m := New(Config{})
	m.Write64(0, 1)
	m.Write64(15<<30, 2)
	if len(m.mem) != 2 {
		t.Errorf("allocated %d chunks, want 2", len(m.mem))
	}
	if m.Read64(15<<30) != 2 {
		t.Error("distant read failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(Config{CapacityBytes: 1 << 20})
	for name, fn := range map[string]func(){
		"timing": func() { m.Access(0, 1<<20, false) },
		"read":   func() { m.ReadBytes(1<<20-4, make([]byte, 8)) },
		"write":  func() { m.WriteBytes(1<<20, []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUninitialisedMemoryReadsZero(t *testing.T) {
	m := New(Config{})
	if got := m.Read64(4096); got != 0 {
		t.Errorf("fresh memory = %#x, want 0", got)
	}
}
