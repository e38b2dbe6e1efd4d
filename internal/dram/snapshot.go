package dram

import "repro/internal/snapshot"

// Save implements snapshot.Snapshotter.
func (m *Model) Save(w *snapshot.Writer) error { return m.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter.
func (m *Model) Restore(r *snapshot.Reader) error { return m.state(snapshot.Decode(r)) }

// state lists the controller timing state (per-bank open row and ready
// time, bus occupancy, counters) and the sparse functional backing store.
// All-zero chunks are left out: chunk() materialises zeroed chunks on
// demand, so "absent" and "all zero" are behaviourally identical —
// leaving them out both shrinks checkpoints and keeps save → restore →
// save byte-stable (a restore never re-creates a chunk the save dropped).
func (m *Model) state(s *snapshot.State) error {
	s.Begin("dram.Model", 1)
	s.Shape("banks", len(m.banks))
	for i := range m.banks {
		snapshot.Fixed(s, &m.banks[i].openRow)
		snapshot.Fixed(s, &m.banks[i].readyAt)
	}
	snapshot.Fixed(s, &m.busFreeAt)
	s.U64(&m.stats.Reads)
	s.U64(&m.stats.Writes)
	s.U64(&m.stats.RowHits)
	s.U64(&m.stats.RowMisses)
	snapshot.Fixed(s, &m.stats.BusBusyCycles)
	maxChunks := m.cfg.CapacityBytes >> chunkShift
	snapshot.Map(s, &m.mem, int(maxChunks), hasData, func(key *uint64, data *[]byte) {
		snapshot.Uvarint(s, key)
		s.Bytes(data, chunkSize)
		s.Check(*key < maxChunks, "dram: checkpoint chunk %d beyond capacity (%d chunks)", *key, maxChunks)
		s.Check(len(*data) == chunkSize, "dram: checkpoint chunk %d is %d bytes, want %d", *key, len(*data), chunkSize)
	})
	return s.Err()
}

func hasData(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return true
		}
	}
	return false
}
