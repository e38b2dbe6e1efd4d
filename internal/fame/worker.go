package fame

import (
	"runtime/debug"
	"sync/atomic"

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
// produces the same token streams and injector windows.
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

// member locates one endpoint in its worker's plan: the endpoint and its
// port span.
type member struct {
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
		p.members[mi] = member{ep: e, name: e.Name(), eager: eager, lo: lo, hi: hi}
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
func (r *Runner) work(p *plan, base clock.Cycles, rounds int, abort *atomic.Bool) (perr *EndpointPanicError) {
	n := int(r.step)
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
					p.outs[q] = b.rp.take(n, &r.poolAllocs)
				default:
					p.scratch[q].Reset(n)
					p.outs[q] = p.scratch[q]
				}
			}
			if inj != nil && mem.eager == nil {
				p.filterIn(inj, mem, start)
			}
			mem.ep.TickBatch(n, p.ins[mem.lo:mem.hi], p.outs[mem.lo:mem.hi])
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
					if !b.rp.free.push(p.ins[q]) {
						r.poolDrops.Add(1)
					}
				}
			}
		}
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
