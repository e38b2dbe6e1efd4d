package fame

import (
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/token"
)

// This file is the scheduler's one round loop. A worker owns a plan: its
// endpoints (members) in global registration order, with every member's
// port bindings and batch scratch fused into flat arrays, each member
// owning the span [lo, hi) of them. Run executes one plan covering every
// endpoint on the caller's goroutine; RunParallel executes one plan per
// worker on its own goroutine (parallel.go). Both call work, so pop →
// filter → tick → filter → push is written once and every worker count
// produces the same token streams, injector windows and metrics.
//
// The layout is the scheduler-level analogue of the FAME-5 Multiplex
// wrapper: however many endpoints a worker hosts, it walks one contiguous
// binding table and one batch arena per round.

// portBind resolves one endpoint port for the round loop: ch for a link
// whose far end is on the same worker, rp for a link crossing workers,
// neither for an unconnected port.
type portBind struct {
	ch *channel
	rp *ringPair
}

func (b portBind) connected() bool { return b.ch != nil || b.rp != nil }

// member locates one endpoint in its worker's plan: its index in
// Runner.endpoints (and the metrics arrays) and its port span.
type member struct {
	idx    int
	ep     Endpoint
	name   string
	eager  EagerStarter // non-nil when ep wants the per-round prepass
	lo, hi int
}

// plan is one worker's compiled schedule.
type plan struct {
	members []member
	eagers  []int // indices into members whose eager is set
	in, out []portBind
	ins     []*token.Batch
	outs    []*token.Batch
	scratch []*token.Batch // discard batch per unconnected output port
	empty   *token.Batch   // read-only input for unconnected input ports
	toks    []uint64       // per-member tokens awaiting a metrics flush
}

// compile builds the plan for endpoints eps (ascending indices). A channel
// the running RunParallel moved into a ring pair binds to the ring.
func (r *Runner) compile(eps []int) *plan {
	n := int(r.step)
	ports := 0
	for _, i := range eps {
		ports += len(r.inCh[i])
	}
	p := &plan{
		members: make([]member, len(eps)),
		in:      make([]portBind, ports),
		out:     make([]portBind, ports),
		ins:     make([]*token.Batch, ports),
		outs:    make([]*token.Batch, ports),
		scratch: make([]*token.Batch, ports),
		empty:   token.NewBatch(n),
		toks:    make([]uint64, len(eps)),
	}
	bind := func(ch *channel) portBind {
		if ch != nil && ch.rp != nil {
			return portBind{rp: ch.rp}
		}
		return portBind{ch: ch}
	}
	lo := 0
	for mi, i := range eps {
		e := r.endpoints[i]
		hi := lo + len(r.inCh[i])
		eager, _ := e.(EagerStarter)
		p.members[mi] = member{idx: i, ep: e, name: e.Name(), eager: eager, lo: lo, hi: hi}
		if eager != nil {
			p.eagers = append(p.eagers, mi)
		}
		for q := lo; q < hi; q++ {
			p.in[q] = bind(r.inCh[i][q-lo])
			p.out[q] = bind(r.outCh[i][q-lo])
			if !p.out[q].connected() {
				p.scratch[q] = token.NewBatch(n)
			}
		}
		lo = hi
	}
	return p
}

// work runs rounds rounds of p from target cycle base. Per round it first
// pops and filters the inputs of eager members and starts them, then for
// each member in order pops its inputs, takes its output batches, filters
// the inputs, ticks, filters the outputs, pushes them and recycles the
// inputs. The injector hooks therefore run in the same order for every
// worker count.
//
// Panic containment: a member that panics must not take the process down
// (in a shard process it would take every co-hosted partition with it).
// work recovers, raises abort so sibling workers blocked on a ring unwind,
// and returns an error naming the member and its window. A worker that
// sees abort raised returns nil.
//
// heartbeat selects the one worker that publishes round and cycle
// progress; every worker publishes its own members' token counts.
func (r *Runner) work(p *plan, base clock.Cycles, rounds int, heartbeat bool, abort *atomic.Bool) (perr *EndpointPanicError) {
	n := int(r.step)
	m := r.metrics
	inj := r.injector
	cur, round := -1, 0
	defer func() {
		if v := recover(); v != nil {
			abort.Store(true)
			name := "<worker>"
			if cur >= 0 {
				name = p.members[cur].name
			}
			perr = &EndpointPanicError{Endpoint: name, Cycle: base + clock.Cycles(round)*r.step, Value: v, Stack: debug.Stack()}
		}
	}()
	var hbRounds uint64
	for ; round < rounds; round++ {
		if abort.Load() {
			return nil
		}
		start := base + clock.Cycles(round)*r.step
		for _, mi := range p.eagers {
			cur = mi
			mem := &p.members[mi]
			if !p.pop(mem, abort) {
				return nil
			}
			if inj != nil {
				p.filterIn(inj, mem, start)
			}
			mem.eager.StartBatch(n, p.ins[mem.lo:mem.hi])
		}
		// Tick timing samples the same round indices on every worker; each
		// tick pays its own two clock reads so ring waits never land in the
		// histogram.
		sampled := m != nil && round&tickSampleMask == 0
		for mi := range p.members {
			cur = mi
			mem := &p.members[mi]
			if mem.eager == nil && !p.pop(mem, abort) {
				return nil
			}
			for q := mem.lo; q < mem.hi; q++ {
				switch b := p.out[q]; {
				case b.ch != nil:
					p.outs[q] = b.ch.take(n)
				case b.rp != nil:
					p.outs[q] = b.rp.take(n, m)
				default:
					p.scratch[q].Reset(n)
					p.outs[q] = p.scratch[q]
				}
			}
			if inj != nil && mem.eager == nil {
				p.filterIn(inj, mem, start)
			}
			var t0 time.Time
			if sampled {
				t0 = time.Now()
			}
			mem.ep.TickBatch(n, p.ins[mem.lo:mem.hi], p.outs[mem.lo:mem.hi])
			if m != nil {
				if sampled {
					m.tick[mem.idx].Observe(uint64(time.Since(t0).Nanoseconds()))
				}
				for q := mem.lo; q < mem.hi; q++ {
					if p.out[q].connected() {
						p.toks[mi] += uint64(len(p.outs[q].Slots))
					}
				}
			}
			if inj != nil {
				for q := mem.lo; q < mem.hi; q++ {
					if p.out[q].connected() {
						inj.FilterOutput(mem.name, q-mem.lo, start, p.outs[q])
					}
				}
			}
			for q := mem.lo; q < mem.hi; q++ {
				switch b := p.out[q]; {
				case b.ch != nil:
					b.ch.push(p.outs[q])
				case b.rp != nil:
					if !pushWait(b.rp.data, p.outs[q], abort) {
						return nil
					}
				}
				switch b := p.in[q]; {
				case b.ch != nil:
					b.ch.recycle(p.ins[q])
				case b.rp != nil:
					// Unreachable with the depth+3 free-ring sizing; the
					// counter is a regression tripwire asserted zero by tests.
					if !b.rp.free.push(p.ins[q]) && m != nil {
						m.poolDrops.Inc()
					}
				}
			}
		}
		if m != nil {
			// Counters batch locally and flush on sampled rounds (and at the
			// end), so quiet rounds touch no shared memory while external
			// readers still see progress at sample granularity.
			if heartbeat {
				hbRounds++
			}
			if sampled {
				p.flush(m, &hbRounds, r.step, start+r.step)
			}
		}
	}
	if m != nil {
		p.flush(m, &hbRounds, r.step, base+clock.Cycles(rounds)*r.step)
	}
	return nil
}

// pop fills mem's input span, reporting false when abort was raised while
// waiting on a ring.
func (p *plan) pop(mem *member, abort *atomic.Bool) bool {
	for q := mem.lo; q < mem.hi; q++ {
		switch b := p.in[q]; {
		case b.ch != nil:
			p.ins[q] = b.ch.pop()
		case b.rp != nil:
			bt, ok := popWait(b.rp.data, abort)
			if !ok {
				return false
			}
			p.ins[q] = bt
		default:
			p.ins[q] = p.empty
		}
	}
	return true
}

// filterIn runs the injector over mem's connected inputs.
func (p *plan) filterIn(inj Injector, mem *member, start clock.Cycles) {
	for q := mem.lo; q < mem.hi; q++ {
		if p.in[q].connected() {
			inj.FilterInput(mem.name, q-mem.lo, start, p.ins[q])
		}
	}
}

// flush publishes the plan's batched token counts and, for the heartbeat
// worker (hbRounds non-zero), its rounds and cycles and the gauge value
// cycle.
func (p *plan) flush(m *runnerMetrics, hbRounds *uint64, step, cycle clock.Cycles) {
	var total uint64
	for mi, t := range p.toks {
		if t > 0 {
			m.epTokens[p.members[mi].idx].Add(t)
			total += t
			p.toks[mi] = 0
		}
	}
	if total > 0 {
		m.tokens.Add(total)
	}
	if *hbRounds > 0 {
		m.rounds.Add(*hbRounds)
		m.cycles.Add(*hbRounds * uint64(step))
		m.cycleGauge.Set(int64(cycle))
		*hbRounds = 0
	}
}
