package blockdev

// Probes and helpers that only this package's tests use.

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// ReadSector returns device contents directly (for test assertions).
func (d *Device) ReadSector(sector uint64) []byte {
	if s, ok := d.disk[sector]; ok {
		out := make([]byte, SectorBytes)
		copy(out, s)
		return out
	}
	return make([]byte, SectorBytes)
}
