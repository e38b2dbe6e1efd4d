package fame

import (
	"fmt"
	"sort"

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

// unitChannel is one (producer, port) entry selected by an include
// predicate, in the canonical (name, port) order both save and restore
// walk.
type unitChannel struct {
	name string
	ep   int
	port int
	ch   *channel
}

// unitChannels lists the channels whose producer AND consumer both
// satisfy include, sorted by producer name then port. Requiring both ends
// keeps a unit's stream self-contained: a channel reaching outside the
// unit would need state from an endpoint some other process owns.
func (r *Runner) unitChannels(include func(name string) bool) []unitChannel {
	var out []unitChannel
	for i, e := range r.endpoints {
		if !include(e.Name()) {
			continue
		}
		for p, ch := range r.outCh[i] {
			if ch == nil {
				continue
			}
			if !include(r.endpoints[ch.cons].Name()) {
				continue
			}
			out = append(out, unitChannel{name: e.Name(), ep: i, port: p, ch: ch})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].name != out[b].name {
			return out[a].name < out[b].name
		}
		return out[a].port < out[b].port
	})
	return out
}

// SaveChannels writes the in-flight token state of every channel whose
// producer and consumer endpoints both satisfy include, keyed by producer
// name and port. Like Save it is only legal at a batch boundary, where
// each channel holds exactly latency/step batches.
func (r *Runner) SaveChannels(w *snapshot.Writer, include func(name string) bool) error {
	if err := r.build(); err != nil {
		return err
	}
	if r.poisoned {
		return ErrPoisoned
	}
	chans := r.unitChannels(include)
	w.Begin("fame.Channels", 1)
	w.U64(uint64(r.step))
	w.Uvarint(uint64(len(chans)))
	for _, uc := range chans {
		want := int(uc.ch.latency / r.step)
		if uc.ch.queue.len() != want {
			return fmt.Errorf("fame: channel %q port %d holds %d batches, want %d (checkpoint only at batch boundaries)",
				uc.name, uc.port, uc.ch.queue.len(), want)
		}
		w.String(uc.name)
		w.Uvarint(uint64(uc.port))
		w.U64(uint64(uc.ch.latency))
		for k := 0; k < uc.ch.queue.len(); k++ {
			if err := uc.ch.queue.at(k).Save(w); err != nil {
				return err
			}
		}
	}
	return w.Err()
}

// RestoreChannels overwrites the in-flight batches of the channels
// selected by include from a SaveChannels stream. The runner must expose
// the same unit under the same names: every saved channel must resolve,
// and every channel include selects in this topology must appear in the
// stream. It does not touch r.cycle (one runner may restore several units
// in sequence) — finish a partition-level restore with SetCycle.
func (r *Runner) RestoreChannels(rd *snapshot.Reader, include func(name string) bool) error {
	if err := r.build(); err != nil {
		return err
	}
	if err := rd.Begin("fame.Channels", 1); err != nil {
		return err
	}
	step := clock.Cycles(rd.U64())
	n := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return err
	}
	if step != r.step {
		return fmt.Errorf("fame: channel checkpoint step %d, runner step %d", step, r.step)
	}
	chans := r.unitChannels(include)
	if n != uint64(len(chans)) {
		return fmt.Errorf("fame: channel checkpoint has %d channels, unit has %d", n, len(chans))
	}
	byKey := make(map[string]unitChannel, len(chans))
	for _, uc := range chans {
		byKey[fmt.Sprintf("%s/%d", uc.name, uc.port)] = uc
	}
	seen := make(map[string]bool, len(chans))
	for c := uint64(0); c < n; c++ {
		name := rd.String(256)
		port := int(rd.Uvarint())
		lat := clock.Cycles(rd.U64())
		if err := rd.Err(); err != nil {
			return err
		}
		key := fmt.Sprintf("%s/%d", name, port)
		uc, ok := byKey[key]
		if !ok {
			return fmt.Errorf("fame: channel checkpoint entry %q not present in unit", key)
		}
		if seen[key] {
			return fmt.Errorf("fame: channel checkpoint repeats %q", key)
		}
		seen[key] = true
		if uc.ch.latency != lat {
			return fmt.Errorf("fame: channel checkpoint latency %d for %q, topology has %d", lat, key, uc.ch.latency)
		}
		depth := int(lat / r.step)
		for uc.ch.queue.len() > 0 {
			uc.ch.recycle(uc.ch.queue.pop())
		}
		for k := 0; k < depth; k++ {
			b := uc.ch.take(int(r.step))
			if err := b.Restore(rd); err != nil {
				uc.ch.recycle(b)
				return err
			}
			if b.N != int(r.step) {
				return fmt.Errorf("fame: channel checkpoint batch window %d, step is %d", b.N, r.step)
			}
			uc.ch.push(b)
		}
	}
	return nil
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
