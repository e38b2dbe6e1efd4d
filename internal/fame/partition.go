package fame

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/snapshot"
)

// This file holds the runner APIs the multi-process partition layer
// (internal/manager) builds on. Runner.Save/Restore key channels by
// endpoint INDEX, which is perfect when checkpoint and restore target are
// the same topology — but a partition checkpoint must be restorable into
// a runner that hosts a different SET of endpoints (a re-packed shard
// carrying two subtrees instead of one). Names survive re-packing; global
// indices do not. SaveChannels/RestoreChannels therefore key each channel
// by (producer endpoint name, port) and take an include predicate naming
// the partition unit's members, so one runner can checkpoint and restore
// each hosted unit independently.

// SaveChannels writes the in-flight token state of every channel whose
// producer and consumer endpoints both satisfy include, keyed by producer
// name and port. Like Save it is only legal at a batch boundary.
func (r *Runner) SaveChannels(w *snapshot.Writer, include func(name string) bool) error {
	return r.channelsState(snapshot.Encode(w), include)
}

// RestoreChannels overwrites the in-flight batches of the channels
// selected by include from a SaveChannels stream. The runner must expose
// the same unit under the same names: the stream must list exactly the
// channels include selects in this topology. It does not touch r.cycle
// (one runner may restore several units in sequence) — finish a
// partition-level restore with SetCycle.
func (r *Runner) RestoreChannels(rd *snapshot.Reader, include func(name string) bool) error {
	return r.channelsState(snapshot.Decode(rd), include)
}

// SetCycle jumps target time to c (a multiple of Step), completing a
// partition-level restore after the unit's components and channels have
// been rewound. It clears panic poison: the caller has just replaced
// whatever mid-round state the panic tore.
func (r *Runner) SetCycle(c clock.Cycles) error {
	if err := r.build(); err != nil {
		return err
	}
	if c%r.step != 0 {
		return fmt.Errorf("fame: cycle %d is not a multiple of step %d", c, r.step)
	}
	r.cycle = c
	r.poisoned = false
	return nil
}
