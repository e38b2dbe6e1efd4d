// Package fame implements the decoupled, token-coupled simulation runtime
// at the heart of FireSim.
//
// FireSim applies the FAME-1 transform to server RTL: each target cycle,
// the transformed design expects a token on every input interface and
// produces a token on every output interface; if any input token is
// missing, the model stalls until one arrives. This simple contract is what
// lets heterogeneous simulation hosts — FPGAs, switch-model processes,
// different machines — advance different target cycles at the same wall
// time while still computing every target cycle deterministically.
//
// This package provides:
//
//   - the Endpoint contract (a batched form of the per-cycle token
//     interface; see DESIGN.md, "Performance note"),
//   - Link plumbing with per-link latency, where batch size equals the
//     link latency exactly as in the paper ("we always set our batch size
//     to the target link latency being modeled"),
//   - one scheduler: each worker compiles its endpoints into a fused plan
//     and runs it through the one round loop in worker.go. Run is a single
//     worker on the caller's goroutine; RunParallel partitions the
//     endpoints over Workers() workers joined by latency-deep SPSC rings
//     (parallel.go). Every worker count yields bit-identical token
//     streams, and
//   - a FAME-5-style Multiplex wrapper that hosts several target models on
//     one simulated physical pipeline.
package fame

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/token"
)

// Endpoint is a decoupled simulation model: a FAME-1-transformed server
// blade, a switch model, or any other component on the token network.
//
// TickBatch advances the model by n target cycles. in[p] holds the tokens
// arriving on port p during those cycles and out[p] must be filled with the
// tokens the model emits on port p. Both slices have one entry per port.
//
// Contract:
//   - in batches are read-only; endpoints must not mutate or retain them
//     past the call (the runtime recycles their storage),
//   - out batches arrive Reset to n cycles; the endpoint Puts its valid
//     tokens and must not retain them,
//   - an unconnected input port receives a batch with no valid tokens; an
//     unconnected output port receives a scratch batch that is discarded.
//
// A model must behave as if it were ticked one cycle at a time: emitting a
// token at out-offset k may depend only on input tokens at offsets <= k on
// ports whose data combinationally reaches the output, exactly like the
// latency-insensitive FAME-1 hardware contract.
type Endpoint interface {
	// Name identifies the endpoint in diagnostics.
	Name() string
	// NumPorts reports how many token ports the endpoint exposes.
	NumPorts() int
	// TickBatch advances the endpoint by n target cycles.
	TickBatch(n int, in, out []*token.Batch)
}

// EagerStarter is an optional Endpoint capability for overlapping I/O
// with computation. When an endpoint implements it, its worker runs a
// per-round prepass before the normal tick order: the endpoint's input
// batches are popped (and injector-filtered) early and handed to
// StartBatch, which may kick off asynchronous work — a transport.Bridge
// puts its frame on the wire — before any endpoint in the round blocks.
// With K cut-point bridges in a partition, all K sends overlap and the
// round pays ~one network round-trip instead of K serial ones.
//
// Contract: StartBatch receives exactly the input batches the subsequent
// TickBatch call will receive (same storage, already filtered); it must
// not mutate them, and it must be a best-effort no-op whenever it cannot
// proceed — the runtime neither checks for nor reacts to failure there,
// TickBatch remains responsible for the window's result. Pre-popping is
// equivalence-preserving: a round's inputs were pushed in the previous
// round (or pre-seeded), so the FIFO pop yields the same batch whether it
// happens in the prepass or at the endpoint's slot in tick order.
type EagerStarter interface {
	StartBatch(n int, in []*token.Batch)
}

// Injector observes and mutates token batches as they cross endpoint
// boundaries, the hook the fault-injection subsystem (internal/faults)
// plugs into. FilterInput runs on a batch just before it is delivered to
// the named endpoint's input port; FilterOutput runs on a batch the
// endpoint just emitted, before it enters the link. start is the absolute
// target cycle of the batch's first token, so an injector keyed on
// (endpoint, port, cycle) is a pure function of target time and therefore
// deterministic under both Run and RunParallel.
//
// Implementations may mutate the batch in place (the runtime owns its
// storage at hook time) but must not retain it. They must be safe for
// concurrent calls on distinct endpoints: RunParallel invokes each
// endpoint's hooks from the worker goroutine that owns the endpoint, and
// different endpoints may be on different workers.
type Injector interface {
	FilterInput(endpoint string, port int, start clock.Cycles, b *token.Batch)
	FilterOutput(endpoint string, port int, start clock.Cycles, b *token.Batch)
}

// link is one attachment point: (endpoint index, port).
type portRef struct {
	ep   int
	port int
}

// channel carries token batches in one direction with a fixed latency.
// latency tokens are always in flight: the queue is pre-seeded with
// latency/step empty batches before the simulation starts.
type channel struct {
	latency clock.Cycles
	cons    int            // index of the consuming endpoint
	queue   batchRing      // FIFO of batches in flight
	free    []*token.Batch // recycled batch storage
	// rp is non-nil only while a multi-worker RunParallel has moved the
	// channel's contents into a cross-worker ring pair.
	rp *ringPair
}

func (c *channel) take(n int) *token.Batch {
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		b.Reset(n)
		return b
	}
	return token.NewBatch(n)
}

func (c *channel) push(b *token.Batch) { c.queue.push(b) }

func (c *channel) pop() *token.Batch { return c.queue.pop() }

func (c *channel) recycle(b *token.Batch) { c.free = append(c.free, b) }

// Link describes a bidirectional connection between two endpoint ports
// with a given latency in target cycles. N tokens are always in flight in
// each direction, so data emitted at cycle M arrives at cycle M+N.
type Link struct {
	a, b    portRef
	latency clock.Cycles
}

// Runner owns a topology of endpoints and links and advances target time.
// Endpoints and links must all be registered before the first Run call.
type Runner struct {
	endpoints []Endpoint
	epIndex   map[Endpoint]int
	links     []Link
	// inCh[e][p] / outCh[e][p] are the channels attached to each port;
	// nil when the port is unconnected.
	inCh, outCh [][]*channel
	step        clock.Cycles
	cycle       clock.Cycles
	built       bool

	// poisoned is set when an endpoint panic was contained mid-round: the
	// channel populations are inconsistent, so running or saving is
	// refused until a Restore (or partition-level SetCycle) rewinds to a
	// coherent state. See panic.go.
	poisoned bool

	// injector, when non-nil, filters every batch crossing an endpoint
	// boundary (fault injection).
	injector Injector

	// metricsReg and metrics carry the optional observability wiring (see
	// metrics.go). metrics is nil unless EnableMetrics was called, and the
	// hot loops guard every instrument behind that one nil check.
	metricsReg *obs.Registry
	metrics    *runnerMetrics

	// workers, when non-zero, fixes how many workers RunParallel uses;
	// zero means GOMAXPROCS (see SetWorkers in parallel.go).
	workers int

	// effWorkers records how many workers the most recent RunParallel
	// actually ran after endpoint-count capping, so benchmarks attribute a
	// rate to the real worker count rather than the requested one.
	effWorkers int

	// single is the one-worker plan Run executes, compiled on first use.
	// Its bindings name channels, which never change after build (Restore
	// refills the same ones), so it stays valid for the runner's lifetime
	// and a Run call compiles and allocates nothing.
	single *plan

	// stepOverride, when non-zero, forces a smaller batch step than the
	// latency GCD (it must divide every link latency). Target behaviour is
	// identical — only host performance changes — which makes it the
	// ablation knob for the paper's batching argument ("tokens can be
	// batched up to the target's link latency, without any compromise in
	// cycle accuracy").
	stepOverride clock.Cycles
}

// NewRunner returns an empty topology.
func NewRunner() *Runner {
	return &Runner{epIndex: make(map[Endpoint]int)}
}

// Add registers an endpoint and returns it for chaining-style use.
func (r *Runner) Add(e Endpoint) Endpoint {
	if r.built {
		panic("fame: Add after Run")
	}
	if _, dup := r.epIndex[e]; dup {
		panic(fmt.Sprintf("fame: endpoint %q added twice", e.Name()))
	}
	r.epIndex[e] = len(r.endpoints)
	r.endpoints = append(r.endpoints, e)
	return e
}

// Connect attaches port aPort of a to port bPort of b with the given link
// latency (in target cycles) in each direction. Both endpoints must already
// be registered with Add.
func (r *Runner) Connect(a Endpoint, aPort int, b Endpoint, bPort int, latency clock.Cycles) error {
	if r.built {
		return errors.New("fame: Connect after Run")
	}
	ai, ok := r.epIndex[a]
	if !ok {
		return fmt.Errorf("fame: endpoint %q not registered", a.Name())
	}
	bi, ok := r.epIndex[b]
	if !ok {
		return fmt.Errorf("fame: endpoint %q not registered", b.Name())
	}
	if latency <= 0 {
		return fmt.Errorf("fame: link latency must be positive, got %d", latency)
	}
	if aPort < 0 || aPort >= a.NumPorts() {
		return fmt.Errorf("fame: port %d out of range for %q", aPort, a.Name())
	}
	if bPort < 0 || bPort >= b.NumPorts() {
		return fmt.Errorf("fame: port %d out of range for %q", bPort, b.Name())
	}
	r.links = append(r.links, Link{a: portRef{ai, aPort}, b: portRef{bi, bPort}, latency: latency})
	return nil
}

// Step returns the batch step size in cycles chosen for this topology: the
// greatest common divisor of all link latencies, so that every link's
// in-flight token count is a whole number of batches. Calling Step
// finalises the topology (no further Add/Connect calls are allowed); it
// returns 0 if the topology is not yet valid.
func (r *Runner) Step() clock.Cycles {
	if err := r.build(); err != nil {
		return 0
	}
	return r.step
}

// Cycle returns the current target cycle (the number of cycles fully
// simulated so far).
func (r *Runner) Cycle() clock.Cycles { return r.cycle }

// SetInjector installs (or, with nil, removes) the batch filter hook used
// for fault injection. It may be called between runs; mid-run changes are
// not supported. Determinism is preserved as long as the injector itself
// is a pure function of (endpoint, port, cycle), which faults.Plan
// guarantees.
func (r *Runner) SetInjector(inj Injector) { r.injector = inj }

// SetStepOverride forces exchanging batches of s tokens instead of one
// link latency's worth. s must divide every link latency; it must be set
// before the first Run. Use only for host-performance ablation — target
// behaviour is unchanged by construction.
func (r *Runner) SetStepOverride(s clock.Cycles) error {
	if r.built {
		return errors.New("fame: SetStepOverride after Run")
	}
	if s <= 0 {
		return fmt.Errorf("fame: step override must be positive, got %d", s)
	}
	r.stepOverride = s
	return nil
}

func gcd(a, b clock.Cycles) clock.Cycles {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (r *Runner) build() error {
	if r.built {
		return nil
	}
	if len(r.endpoints) == 0 {
		return errors.New("fame: no endpoints registered")
	}
	if len(r.links) == 0 {
		return errors.New("fame: no links registered")
	}
	r.step = r.links[0].latency
	for _, l := range r.links[1:] {
		r.step = gcd(r.step, l.latency)
	}
	if r.stepOverride > 0 {
		if r.step%r.stepOverride != 0 {
			return fmt.Errorf("fame: step override %d does not divide the latency gcd %d", r.stepOverride, r.step)
		}
		r.step = r.stepOverride
	}

	r.inCh = make([][]*channel, len(r.endpoints))
	r.outCh = make([][]*channel, len(r.endpoints))
	for i, e := range r.endpoints {
		r.inCh[i] = make([]*channel, e.NumPorts())
		r.outCh[i] = make([]*channel, e.NumPorts())
	}
	attach := func(from, to portRef, lat clock.Cycles) error {
		if r.outCh[from.ep][from.port] != nil {
			return fmt.Errorf("fame: output port %d of %q connected twice", from.port, r.endpoints[from.ep].Name())
		}
		if r.inCh[to.ep][to.port] != nil {
			return fmt.Errorf("fame: input port %d of %q connected twice", to.port, r.endpoints[to.ep].Name())
		}
		ch := &channel{latency: lat, cons: to.ep}
		// Pre-seed the link with latency worth of empty tokens, exactly as
		// in the paper's walk-through: "each input token queue initialized
		// with l tokens".
		for seeded := clock.Cycles(0); seeded < lat; seeded += r.step {
			ch.push(token.NewBatch(int(r.step)))
		}
		r.outCh[from.ep][from.port] = ch
		r.inCh[to.ep][to.port] = ch
		return nil
	}
	for _, l := range r.links {
		if err := attach(l.a, l.b, l.latency); err != nil {
			return err
		}
		if err := attach(l.b, l.a, l.latency); err != nil {
			return err
		}
	}
	r.built = true
	if r.metricsReg != nil {
		r.initMetrics()
	}
	return nil
}

// Run advances the simulation by the given number of target cycles on the
// caller's goroutine: one worker running every endpoint (see worker.go).
// cycles must be a positive multiple of Step (after the first Run, Step
// is fixed).
func (r *Runner) Run(cycles clock.Cycles) error {
	_, err := r.run(cycles)
	return err
}

// run is Run plus a wall-time measurement covering only the round loop,
// so Measure's reported sim rate is not inflated by the one-time plan
// compile on short runs.
func (r *Runner) run(cycles clock.Cycles) (time.Duration, error) {
	rounds, err := r.rounds(cycles)
	if err != nil {
		return 0, err
	}
	if r.single == nil {
		all := make([]int, len(r.endpoints))
		for i := range all {
			all[i] = i
		}
		r.single = r.compile(all)
	}
	var abort atomic.Bool
	start := time.Now()
	perr := r.work(r.single, r.cycle, rounds, true, &abort)
	return r.finish(time.Since(start), rounds, perr)
}

// rounds validates a run request and returns its length in rounds.
func (r *Runner) rounds(cycles clock.Cycles) (int, error) {
	if err := r.build(); err != nil {
		return 0, err
	}
	if r.poisoned {
		return 0, ErrPoisoned
	}
	if cycles <= 0 || cycles%r.step != 0 {
		return 0, fmt.Errorf("fame: cycles %d must be a positive multiple of step %d", cycles, r.step)
	}
	return int(cycles / r.step), nil
}

// finish closes a run. After a contained panic the runner is poisoned and
// target time stays at the run's start: the round was torn mid-flight, so
// the start is the last coherent boundary a caller could have saved, and
// the channel populations are not coherent until a Restore rewinds them.
func (r *Runner) finish(wall time.Duration, rounds int, perr *EndpointPanicError) (time.Duration, error) {
	if perr != nil {
		r.poisoned = true
		return wall, perr
	}
	r.cycle += clock.Cycles(rounds) * r.step
	if m := r.metrics; m != nil {
		m.runWall.Add(uint64(wall.Nanoseconds()))
		m.cycleGauge.Set(int64(r.cycle))
	}
	return wall, nil
}

// RunParallel advances the simulation by the given number of target cycles
// on a worker pool (see parallel.go): endpoints are partitioned across up
// to Workers() workers, and each worker runs decoupled for up to a link
// latency of target cycles before synchronizing with a neighbour. This
// mirrors the paper's distributed execution: hosts may be simulating
// different target cycles at the same moment, yet the token protocol
// guarantees results identical to Run.
func (r *Runner) RunParallel(cycles clock.Cycles) error {
	_, err := r.runParallel(cycles)
	return err
}

// Measure runs the simulation for the given target cycles (sequentially or
// in parallel) and returns the achieved simulation rate, which is how the
// paper reports performance in Figures 8 and 9.
//
// Only the round loop is timed. Topology build, plan compilation and the
// parallel runner's partition and ring construction all happen before the
// clock starts (and the ring drain after it stops), so short calibration
// runs report the same per-cycle cost as long ones instead of folding
// one-time setup into the rate.
func (r *Runner) Measure(cycles clock.Cycles, freq clock.Hz, parallel bool) (clock.SimRate, error) {
	var wall time.Duration
	var err error
	if parallel {
		wall, err = r.runParallel(cycles)
	} else {
		wall, err = r.run(cycles)
	}
	if err != nil {
		return clock.SimRate{}, err
	}
	return clock.SimRate{TargetCycles: cycles, Wall: wall, TargetFreq: freq}, nil
}
