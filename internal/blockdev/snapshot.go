package blockdev

import "repro/internal/snapshot"

// Save implements snapshot.Snapshotter.
func (d *Device) Save(w *snapshot.Writer) error { return d.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (d *Device) Restore(r *snapshot.Reader) error { return d.state(snapshot.Decode(r)) }

// state lists the controller (trackers, staging registers, completion
// queue, interrupt enable, counters) and the sparse sector store.
func (d *Device) state(s *snapshot.State) error {
	s.Begin("blockdev.Device", 1)
	s.Shape("trackers", len(d.trackers))
	for i := range d.trackers {
		s.Bool(&d.trackers[i].busy)
		snapshot.Fixed(s, &d.trackers[i].doneAt)
	}
	s.U64(&d.addr)
	s.U64(&d.sector)
	s.U64(&d.nsectors)
	s.U64(&d.write)
	// The completion queue has no hard structural bound (a tracker can
	// complete again before software pops the previous entry); cap it
	// generously rather than exactly.
	snapshot.Slice(s, &d.completions, 1<<16, func(id *int) {
		snapshot.Uvarint(s, id)
		s.Check(*id < len(d.trackers), "blockdev: completion for tracker %d, device has %d", *id, len(d.trackers))
	})
	s.Bool(&d.intrEn)
	s.U64(&d.stats.Reads)
	s.U64(&d.stats.Writes)
	s.U64(&d.stats.SectorsMoved)
	s.U64(&d.stats.AllocFailed)
	snapshot.Map(s, &d.disk, int(d.NumSectors()), nil, func(sector *uint64, data *[]byte) {
		snapshot.Uvarint(s, sector)
		s.Bytes(data, SectorBytes)
		s.Check(*sector < d.NumSectors(), "blockdev: checkpoint sector %d beyond capacity", *sector)
		s.Check(len(*data) == SectorBytes, "blockdev: checkpoint sector %d is %d bytes, want %d", *sector, len(*data), SectorBytes)
	})
	return s.Err()
}
