package fame

import (
	"sort"

	"repro/internal/snapshot"
)

// Save checkpoints the runner's own state: the current target cycle and
// every in-flight token batch, each channel keyed by endpoint index. The
// topology itself (endpoints, links, latencies) is not serialised — a
// restore target is expected to have been rebuilt from the same
// configuration, and Restore verifies the structural facts it can see
// (step, channel layout, per-link latency).
func (r *Runner) Save(w *snapshot.Writer) error { return r.channelsState(snapshot.Encode(w), nil) }

// Restore overwrites the runner's cycle and in-flight batches, and clears
// panic poison: a full channel restore rewinds whatever a contained panic
// tore mid-round.
func (r *Runner) Restore(rd *snapshot.Reader) error {
	return r.channelsState(snapshot.Decode(rd), nil)
}

// unitChannel is one (producer, port) entry of a channel checkpoint.
type unitChannel struct {
	name string
	ep   int
	port int
	ch   *channel
}

// unitChannels lists the channels a checkpoint covers, in the order it
// records them. With a nil include that is every channel in endpoint-then-
// port order, which is construction order and therefore deterministic.
// Otherwise it is the channels whose producer AND consumer both satisfy
// include, sorted by producer name then port. Requiring both ends keeps a
// unit's stream self-contained: a channel reaching outside the unit would
// need state from an endpoint some other process owns.
func (r *Runner) unitChannels(include func(name string) bool) []unitChannel {
	out := make([]unitChannel, 0, 2*len(r.links))
	for i, e := range r.endpoints {
		if include != nil && !include(e.Name()) {
			continue
		}
		for p, ch := range r.outCh[i] {
			if ch == nil || include != nil && !include(r.endpoints[ch.cons].Name()) {
				continue
			}
			out = append(out, unitChannel{name: e.Name(), ep: i, port: p, ch: ch})
		}
	}
	if include != nil {
		sort.Slice(out, func(a, b int) bool {
			if out[a].name != out[b].name {
				return out[a].name < out[b].name
			}
			return out[a].port < out[b].port
		})
	}
	return out
}

// channelsState lists the in-flight token state of the channels
// unitChannels(include) selects. The two streams differ in two places
// only: the whole-runner stream (nil include) keys each channel by
// endpoint index and records the cycle, while a unit stream keys it by
// producer name — names survive re-packing units onto processes, global
// indices do not — and leaves the cycle to SetCycle. Checkpoints are only
// legal at a batch boundary, where each channel holds exactly
// latency/step batches, oldest first. Decoding drains each channel into
// its free list and refills it with recycled batches before overwriting
// them.
func (r *Runner) channelsState(s *snapshot.State, include func(name string) bool) error {
	if err := r.build(); err != nil {
		return err
	}
	if r.poisoned && !s.Decoding() {
		return ErrPoisoned
	}
	whole := include == nil
	chans := r.unitChannels(include)
	if whole {
		s.Begin("fame.Runner", 1)
	} else {
		s.Begin("fame.Channels", 1)
	}
	step := r.step
	snapshot.Fixed(s, &step)
	s.Check(step == r.step, "fame: checkpoint step %d, runner step %d", step, r.step)
	if whole {
		snapshot.Fixed(s, &r.cycle)
	}
	s.Shape("channels", len(chans))
	for c, uc := range chans {
		ep, name, port, lat := uc.ep, uc.name, uc.port, uc.ch.latency
		if whole {
			snapshot.Uvarint(s, &ep)
		} else {
			s.String(&name, 256)
		}
		snapshot.Uvarint(s, &port)
		snapshot.Fixed(s, &lat)
		if !s.Check(ep == uc.ep && name == uc.name && port == uc.port && lat == uc.ch.latency,
			"fame: checkpoint channel %d is not the topology's (producer, port, latency)", c) {
			break
		}
		depth := int(lat / r.step)
		if s.Decoding() {
			for uc.ch.queue.len() > 0 {
				uc.ch.recycle(uc.ch.queue.pop())
			}
			for k := 0; k < depth; k++ {
				uc.ch.push(uc.ch.take(int(r.step)))
			}
		}
		s.Check(uc.ch.queue.len() == depth, "fame: channel %d holds %d batches, want %d (checkpoint only at batch boundaries)",
			c, uc.ch.queue.len(), depth)
		for k := 0; k < depth && s.Err() == nil; k++ {
			b := uc.ch.queue.at(k)
			s.Sub(b)
			s.Check(b.N == int(r.step), "fame: channel %d batch window is not the step", c)
		}
	}
	if whole && s.Decoding() && s.Err() == nil {
		r.poisoned = false
	}
	return s.Err()
}

// Save implements snapshot.Snapshotter for Multiplex by delegating to its
// children in pipeline order. Multiplex itself holds no mutable state.
func (m *Multiplex) Save(w *snapshot.Writer) error { return m.state(snapshot.Encode(w)) }

// Restore implements snapshot.Snapshotter for Multiplex.
func (m *Multiplex) Restore(r *snapshot.Reader) error { return m.state(snapshot.Decode(r)) }

func (m *Multiplex) state(s *snapshot.State) error {
	s.Begin("fame.Multiplex", 1)
	s.Shape("multiplex children", len(m.children))
	for i, c := range m.children {
		child, ok := c.(snapshot.Snapshotter)
		if !s.Check(ok, "fame: multiplex child %d is not snapshottable", i) {
			break
		}
		s.Sub(child)
	}
	return s.Err()
}
