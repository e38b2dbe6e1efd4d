package blockdev

import (
	"bytes"
	"testing"

	"repro/internal/clock"
)

type fakeMem struct {
	mem     []byte
	latency clock.Cycles
}

func newFakeMem() *fakeMem { return &fakeMem{mem: make([]byte, 1<<20), latency: 100} }

func (m *fakeMem) ReadDMA(now clock.Cycles, addr uint64, buf []byte) clock.Cycles {
	copy(buf, m.mem[addr:])
	return now + m.latency
}

func (m *fakeMem) WriteDMA(now clock.Cycles, addr uint64, data []byte) clock.Cycles {
	copy(m.mem[addr:], data)
	return now + m.latency
}

// doTransfer programs and runs one transfer to completion, returning the
// cycle at which the completion appeared.
func doTransfer(t *testing.T, d *Device, mem *fakeMem, addr, sector, nsec, write uint64) clock.Cycles {
	t.Helper()
	d.MMIOStore(RegAddr, addr)
	d.MMIOStore(RegSector, sector)
	d.MMIOStore(RegNSectors, nsec)
	d.MMIOStore(RegWrite, write)
	id := d.MMIOLoad(0, RegAlloc)
	if id == NoTracker {
		t.Fatal("allocation failed")
	}
	for now := clock.Cycles(1); now < 10_000_000; now++ {
		d.Tick(now)
		if d.MMIOLoad(now, RegNComplete) > 0 {
			got := d.MMIOLoad(now, RegComplete)
			if got != id {
				t.Fatalf("completion id = %d, want %d", got, id)
			}
			return now
		}
	}
	t.Fatal("transfer never completed")
	return 0
}

func TestWriteThenReadBack(t *testing.T) {
	mem := newFakeMem()
	d := New(DefaultConfig(), mem)
	data := bytes.Repeat([]byte("sector-data!"), 100) // > 1 sector
	copy(mem.mem[0x1000:], data)

	doTransfer(t, d, mem, 0x1000, 5, 2, 1) // write 2 sectors from memory
	// Clobber memory, then read back from the device.
	for i := range mem.mem[0x8000 : 0x8000+2*SectorBytes] {
		mem.mem[0x8000+i] = 0
	}
	doTransfer(t, d, mem, 0x8000, 5, 2, 0)
	if !bytes.Equal(mem.mem[0x8000:0x8000+2*SectorBytes], data[:2*SectorBytes]) {
		t.Error("read-back data differs from written data")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.SectorsMoved != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTransferLatencyScalesWithSectors(t *testing.T) {
	mem := newFakeMem()
	d := New(DefaultConfig(), mem)
	cfg := DefaultConfig()
	t1 := doTransfer(t, d, mem, 0x1000, 0, 1, 0)
	t8 := doTransfer(t, d, mem, 0x1000, 0, 8, 0)
	if want := cfg.FixedLatency + cfg.SectorLatency; t1 != want {
		t.Errorf("1-sector latency = %d, want %d", t1, want)
	}
	if want := cfg.FixedLatency + 8*cfg.SectorLatency; t8 != want {
		t.Errorf("8-sector latency = %d, want %d", t8, want)
	}
}

func TestAllTrackersBusy(t *testing.T) {
	mem := newFakeMem()
	cfg := DefaultConfig()
	d := New(cfg, mem)
	d.MMIOStore(RegNSectors, 1)
	for i := 0; i < cfg.Trackers; i++ {
		if id := d.MMIOLoad(0, RegAlloc); id == NoTracker {
			t.Fatalf("tracker %d allocation failed", i)
		}
	}
	if id := d.MMIOLoad(0, RegAlloc); id != NoTracker {
		t.Errorf("allocation with all trackers busy returned %d", id)
	}
	if d.Stats().AllocFailed != 1 {
		t.Errorf("AllocFailed = %d", d.Stats().AllocFailed)
	}
	// After completion, trackers free up again.
	for now := clock.Cycles(1); now < 1_000_000; now++ {
		d.Tick(now)
		if d.MMIOLoad(now, RegNComplete) == uint64(cfg.Trackers) {
			break
		}
	}
	if id := d.MMIOLoad(2_000_000, RegAlloc); id == NoTracker {
		t.Error("allocation still failing after trackers completed")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	mem := newFakeMem()
	d := New(DefaultConfig(), mem)
	d.MMIOStore(RegSector, d.NumSectors()-1)
	d.MMIOStore(RegNSectors, 2)
	if id := d.MMIOLoad(0, RegAlloc); id != NoTracker {
		t.Errorf("out-of-range transfer allocated tracker %d", id)
	}
}

func TestInterrupt(t *testing.T) {
	mem := newFakeMem()
	d := New(DefaultConfig(), mem)
	d.MMIOStore(RegIntrEn, 1)
	if d.IntrPending() {
		t.Error("interrupt pending with no completions")
	}
	d.MMIOStore(RegNSectors, 1)
	d.MMIOLoad(0, RegAlloc)
	for now := clock.Cycles(1); now < 1_000_000 && !d.IntrPending(); now++ {
		d.Tick(now)
	}
	if !d.IntrPending() {
		t.Fatal("interrupt never asserted")
	}
	d.MMIOLoad(0, RegComplete)
	if d.IntrPending() {
		t.Error("interrupt still pending after completion popped")
	}
}

func TestEmptyCompletionQueue(t *testing.T) {
	d := New(DefaultConfig(), newFakeMem())
	if got := d.MMIOLoad(0, RegComplete); got != NoTracker {
		t.Errorf("empty completion pop = %d", got)
	}
}

func TestProvisioning(t *testing.T) {
	d := New(DefaultConfig(), newFakeMem())
	d.WriteSector(7, []byte("root filesystem block"))
	got := d.ReadSector(7)
	if string(got[:21]) != "root filesystem block" {
		t.Errorf("ReadSector = %q", got[:21])
	}
	if got := d.ReadSector(99); !bytes.Equal(got, make([]byte, SectorBytes)) {
		t.Error("unwritten sector not zero")
	}
}
