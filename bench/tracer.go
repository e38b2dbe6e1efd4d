package main

import (
	"time"

	"repro/internal/clock"
	"repro/internal/token"
)

// The tracers below are fame.Injector implementations that never touch a
// batch: they only read the clock at the hooks the runner already calls
// around every endpoint tick (FilterInput on each connected input port,
// TickBatch, FilterOutput on each connected output port). All spans are
// therefore recorded from the benchmark's side of the layer boundary;
// nothing inside the simulator is instrumented.

// span is one timed interval of a kept window: a window (parent = the
// run's span 1) or an endpoint tick (parent = its window).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Cycle  uint64 `json:"cycle,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keepEvery is the sampling stride for whole windows: one window in 1024
// keeps every tick span, the rest only feed the aggregates.
const keepEvery = 1024

// trace is what one traced region of one runner adds up to.
type trace struct {
	// ns is host time charged to each layer, summed over every thread that
	// ran endpoints; threads is how many there were (1 sequential, the
	// effective worker count in pool mode), so ns sums to threads x wall.
	ns      [numLayers]int64
	threads int
	ticks   int64
	// windowNs are the durations of complete windows, in order.
	windowNs []float64
	spans    []span
}

// seqTracer attributes a sequential runner's wall time exhaustively: the
// interval between any two consecutive hook calls is charged to exactly
// one owner, decided by what the two calls were.
//
//	in(a)  -> in(a)   tracer's own time between port hooks: hook
//	in(a)  -> in(b)   a is an eager endpoint whose StartBatch just ran: a's layer
//	in(a)  -> out(b)  b's TickBatch (a == b except right after the eager prepass)
//	out(a) -> out(a)  hook
//	out(a) -> out(b)  b is eager (its inputs were filtered in the prepass): b's tick
//	out(a) -> in(b)   push/recycle of a, pop/take of b, round bookkeeping: fame
//
// Once an endpoint's first tick has shown which ports its hooks are called
// for, only the first and the last hook on each side of a tick read the
// clock; the calls in between return at once (a 9-port switch makes 18
// hook calls per window, 4 of which matter).
//
// It must only be installed on a runner driven by Run (one goroutine).
type seqTracer struct {
	eps  map[string]*tracedEp
	base time.Time

	// cur caches the endpoint lookup: consecutive hooks are almost always
	// for the same endpoint, and the names are the endpoints' own strings.
	curName string
	cur     *tracedEp

	prevT    int64
	prevOut  bool
	prevName string
	started  bool

	winCycle clock.Cycles
	winT     int64
	winIdx   int
	winSpan  int // span id of the kept window in progress, 0 if not kept

	t trace
}

// tracedEp is what a tracer knows about one endpoint: its layer and, once
// learned, the first and last port on each side that hooks are called for.
type tracedEp struct {
	name            string
	layer           layer
	ticks           int64
	seenIn, seenOut bool
	inFirst, inLast int
	outFirst        int
	outLast         int
}

// skipIn reports whether this input hook is neither the first nor the last
// of its tick, learning the port range during the endpoint's first tick.
func (e *tracedEp) skipIn(port int) bool {
	if e.ticks >= 1 {
		return port != e.inFirst && port != e.inLast
	}
	if !e.seenIn {
		e.seenIn, e.inFirst = true, port
	}
	e.inLast = port
	return false
}

// skipOut is skipIn for output hooks. ticks counts first output hooks, so
// the range learned during tick 1 is complete once tick 2's outputs begin.
func (e *tracedEp) skipOut(port int) bool {
	if e.ticks >= 2 {
		return port != e.outFirst && port != e.outLast
	}
	if e.ticks == 1 {
		if !e.seenOut {
			e.seenOut, e.outFirst = true, port
		}
		e.outLast = port
	}
	return false
}

func newTracedEps(layers map[string]layer) map[string]*tracedEp {
	eps := make(map[string]*tracedEp, len(layers))
	for name, l := range layers {
		eps[name] = &tracedEp{name: name, layer: l}
	}
	return eps
}

func newSeqTracer(layers map[string]layer) *seqTracer {
	return &seqTracer{eps: newTracedEps(layers), base: time.Now(), t: trace{threads: 1}}
}

func (s *seqTracer) ep(name string) *tracedEp {
	if name != s.curName {
		s.curName, s.cur = name, s.eps[name]
	}
	return s.cur
}

func (s *seqTracer) FilterInput(name string, port int, start clock.Cycles, _ *token.Batch) {
	if s.ep(name).skipIn(port) {
		return
	}
	now := int64(time.Since(s.base))
	if !s.started {
		s.started = true
		s.openWindow(start, now)
	} else {
		switch {
		case s.prevOut:
			s.t.ns[layerFame] += now - s.prevT
		case s.prevName == name:
			s.t.ns[layerHook] += now - s.prevT
		default:
			s.charge(s.ep(s.prevName), s.prevT, now, "start")
		}
		if start != s.winCycle {
			s.closeWindow(now)
			s.openWindow(start, now)
		}
	}
	s.prevT, s.prevOut, s.prevName = now, false, name
}

func (s *seqTracer) FilterOutput(name string, port int, _ clock.Cycles, _ *token.Batch) {
	e := s.ep(name)
	if s.prevOut && s.prevName == name {
		if e.skipOut(port) {
			return
		}
		now := int64(time.Since(s.base))
		s.t.ns[layerHook] += now - s.prevT
		s.prevT = now
		return
	}
	// The first output hook of this endpoint's tick.
	now := int64(time.Since(s.base))
	e.ticks++
	e.skipOut(port)
	if s.started {
		s.charge(e, s.prevT, now, "tick")
		s.t.ticks++
	}
	s.prevT, s.prevOut, s.prevName = now, true, name
}

// charge books [from, to) to the endpoint's layer; kind says whether it
// was the endpoint's tick or an eager endpoint's early start.
func (s *seqTracer) charge(e *tracedEp, from, to int64, kind string) {
	s.t.ns[e.layer] += to - from
	if s.winSpan != 0 {
		s.t.spans = append(s.t.spans, span{
			ID: len(s.t.spans) + 2, Parent: s.winSpan, Name: e.name + " " + kind, Layer: layerNames[e.layer], Start: from, End: to,
		})
	}
}

func (s *seqTracer) openWindow(cycle clock.Cycles, now int64) {
	s.winCycle, s.winT = cycle, now
	s.winSpan = 0
	if s.winIdx%keepEvery == 0 {
		s.winSpan = len(s.t.spans) + 2
		s.t.spans = append(s.t.spans, span{ID: s.winSpan, Parent: 1, Name: "window", Cycle: uint64(cycle), Start: now})
	}
	s.winIdx++
}

func (s *seqTracer) closeWindow(now int64) {
	s.t.windowNs = append(s.t.windowNs, float64(now-s.winT))
	if s.winSpan != 0 {
		s.t.spans[s.winSpan-2].End = now
	}
}

// pause tells the tracer the runner is about to stop between two round
// loops of one region: the time until the next hook is not the region's.
func (s *seqTracer) pause() {
	if s.started {
		s.closeWindow(s.prevT)
		s.started = false
	}
}

// finish closes the region: wall is the runner's own measurement of the
// round loop, and what the hooks did not see of it (loop prologue, the
// last endpoint's push) is the scheduler's.
func (s *seqTracer) finish(wall time.Duration) trace {
	if s.started {
		s.closeWindow(s.prevT)
	}
	var seen int64
	for _, v := range s.t.ns {
		seen += v
	}
	if rest := wall.Nanoseconds() - seen; rest > 0 {
		s.t.ns[layerFame] += rest
	}
	return s.t
}

// poolTracer serves the worker-pool and multiplexed schedulers, where
// hooks for different endpoints arrive concurrently from different
// goroutines and carry no worker identity. Each endpoint's state is only
// ever touched by the worker that owns the endpoint, so ticks (last
// FilterInput to first FilterOutput) and hook time are exact per
// endpoint; the scheduler's share, which here includes ring waits and
// idle workers, is what is left of threads x wall.
type poolTracer struct {
	eps    map[string]*poolEp
	base   time.Time
	anchor *poolEp // its input cadence delimits windows
}

type poolEp struct {
	tracedEp
	inOpen   bool // between the first FilterInput and the first FilterOutput of a tick
	outOpen  bool // between the first FilterOutput and the next tick's first FilterInput
	firstIn  int64
	lastIn   int64
	firstOut int64
	lastOut  int64
	tickNs   int64
	hookNs   int64
	windows  []float64 // anchor only
	winT     int64
	spans    []span // this endpoint's ticks in kept windows, Cycle = window start
}

func newPoolTracer(layers map[string]layer, anchor string) *poolTracer {
	p := &poolTracer{eps: make(map[string]*poolEp, len(layers)), base: time.Now()}
	for name, l := range layers {
		p.eps[name] = &poolEp{tracedEp: tracedEp{name: name, layer: l}}
	}
	p.anchor = p.eps[anchor]
	return p
}

func (p *poolTracer) FilterInput(name string, port int, _ clock.Cycles, _ *token.Batch) {
	e := p.eps[name]
	if e.skipIn(port) {
		return
	}
	now := int64(time.Since(p.base))
	if !e.inOpen {
		if e.outOpen {
			e.hookNs += e.lastOut - e.firstOut
		}
		e.inOpen, e.outOpen = true, false
		e.firstIn = now
		if e == p.anchor {
			if e.winT != 0 {
				e.windows = append(e.windows, float64(now-e.winT))
			}
			e.winT = now
		}
	}
	e.lastIn = now
}

func (p *poolTracer) FilterOutput(name string, port int, start clock.Cycles, _ *token.Batch) {
	e := p.eps[name]
	if !e.inOpen {
		if !e.skipOut(port) {
			e.lastOut = int64(time.Since(p.base))
		}
		return
	}
	// The first output hook of this endpoint's tick.
	now := int64(time.Since(p.base))
	e.inOpen, e.outOpen = false, true
	e.hookNs += e.lastIn - e.firstIn
	e.tickNs += now - e.lastIn
	if e.ticks%keepEvery == 0 {
		e.spans = append(e.spans, span{Name: name + " tick", Layer: layerNames[e.layer], Cycle: uint64(start), Start: e.lastIn, End: now})
	}
	e.ticks++
	e.skipOut(port)
	e.firstOut, e.lastOut = now, now
}

// pause is seqTracer.pause for the pool scheduler: only the window
// cadence spans the stop, ticks are measured per endpoint.
func (p *poolTracer) pause() {
	if p.anchor != nil {
		p.anchor.winT = 0
	}
}

func (p *poolTracer) finish(wall time.Duration, threads int) trace {
	t := trace{threads: threads}
	for _, e := range p.eps {
		if e.outOpen {
			e.hookNs += e.lastOut - e.firstOut
		}
		t.ns[e.layer] += e.tickNs
		t.ns[layerHook] += e.hookNs
		t.ticks += e.ticks
	}
	if p.anchor != nil {
		t.windowNs = p.anchor.windows
	}
	t.spans = p.spans()
	var seen int64
	for _, v := range t.ns {
		seen += v
	}
	if rest := int64(threads)*wall.Nanoseconds() - seen; rest > 0 {
		t.ns[layerFame] += rest
	}
	return t
}

// spans assembles the kept windows: every endpoint kept its own tick of
// each kept window, and a window spans from its earliest tick start to its
// latest tick end (workers drift apart by up to a link latency, so windows
// of the pool scheduler overlap).
func (p *poolTracer) spans() []span {
	var out []span
	window := map[uint64]int{} // window start cycle -> index in out
	for _, name := range sortedKeys(p.eps) {
		for _, tick := range p.eps[name].spans {
			wi, ok := window[tick.Cycle]
			if !ok {
				wi = len(out)
				window[tick.Cycle] = wi
				out = append(out, span{ID: wi + 2, Parent: 1, Name: "window", Cycle: tick.Cycle, Start: tick.Start, End: tick.End})
			}
			if tick.Start < out[wi].Start {
				out[wi].Start = tick.Start
			}
			if tick.End > out[wi].End {
				out[wi].End = tick.End
			}
			tick.ID, tick.Parent, tick.Cycle = len(out)+2, wi+2, 0
			out = append(out, tick)
		}
	}
	return out
}

// add folds another region's trace of the same runner shape into t.
func (t *trace) add(o trace) {
	for i := range t.ns {
		t.ns[i] += o.ns[i]
	}
	if t.threads == 0 {
		t.threads = o.threads
	}
	t.ticks += o.ticks
	t.windowNs = append(t.windowNs, o.windowNs...)
	if t.spans == nil {
		t.spans = o.spans
	}
}
