package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/manager"
)

const (
	// regions is how many separately timed stretches the measuring time is
	// cut into; sim_rate_hz is the median of their rates.
	regions = 5
	// setup_s is the median over samples of fresh deployments: at least
	// minSetupReps samples, then more until they have taken setupShare of
	// the measuring time or maxSetupReps is reached.
	minSetupReps   = 5
	maxSetupReps   = 200
	setupShare     = 0.1
	minSetupSample = 2 * time.Millisecond
)

// armWindows is how many windows of load are armed at a time. Arming a
// whole region at once would park hundreds of thousands of future events
// in the nodes' heaps, and the rate would depend on the region length.
const armWindows = 1024

// schedule is an in-process run's shape: a warm-up that doubles as the
// verified prefix (1/8 of the horizon) and the timed regions, both whole
// numbers of arming chunks so that every boundary where state is hashed
// follows a drained ping train.
type schedule struct {
	step   clock.Cycles
	chunk  clock.Cycles
	warm   clock.Cycles
	region clock.Cycles
}

func (w *workload) schedule(step clock.Cycles, seconds float64) schedule {
	win := int64(w.hz * seconds / regions / float64(step))
	if win < 8 {
		win = 8
	}
	chunk := int64(armWindows)
	if win < chunk {
		chunk = win
	}
	win -= win % chunk
	warm := win * regions / 7
	if warm -= warm % chunk; warm < chunk {
		warm = chunk
	}
	return schedule{
		step:   step,
		chunk:  clock.Cycles(chunk) * step,
		warm:   clock.Cycles(warm) * step,
		region: clock.Cycles(win) * step,
	}
}

// advance runs the rig for cycles and returns the time its round loops
// took. Load is armed one chunk at a time, off the clock, at every chunk
// boundary the run crosses; between, when set, is called before each such
// stop so a tracer can exclude it.
func (r *rig) advance(cycles clock.Cycles, between func()) (time.Duration, error) {
	var wall time.Duration
	for cycles > 0 {
		n := cycles
		if r.arm != nil {
			now := r.runner.Cycle()
			if now >= r.armedTo {
				r.arm(now, r.chunk)
				r.armedTo = now + r.chunk
			}
			if left := r.armedTo - now; n > left {
				n = left
			}
		}
		rate, err := r.runner.Measure(n, clock.DefaultTargetClock, r.parallel)
		if err != nil {
			return wall, err
		}
		wall += rate.Wall
		if cycles -= n; cycles > 0 && between != nil {
			between()
		}
	}
	return wall, nil
}

// region runs one timed region. GC runs first so garbage from the
// previous region is not collected on the clock.
func (r *rig) region(cycles clock.Cycles, between func()) (time.Duration, error) {
	runtime.GC()
	return r.advance(cycles, between)
}

// state is what a verification compares: per-component state hashes and
// the simulated counters.
type state struct {
	hashes   map[string]uint64
	counters counters
}

func (r *rig) state() (state, error) {
	h, err := r.hashes()
	return state{hashes: h, counters: r.counters()}, err
}

// diff describes the first difference between two states, or "".
func (a state) diff(b state) string {
	if a.counters != b.counters {
		return fmt.Sprintf("counters %+v vs %+v", a.counters, b.counters)
	}
	if len(a.hashes) != len(b.hashes) {
		return fmt.Sprintf("%d vs %d components", len(a.hashes), len(b.hashes))
	}
	for k, v := range a.hashes {
		if b.hashes[k] != v {
			return fmt.Sprintf("component %s: %016x vs %016x", k, v, b.hashes[k])
		}
	}
	return ""
}

// digest folds a state into the one value a simulator-only change must
// leave identical.
func (a state) digest(cycle clock.Cycles) string {
	return fmt.Sprintf("%016x@%d tx=%d rx=%d flits=%d drops=%d instret=%d",
		manager.CombineHashes(a.hashes), cycle,
		a.counters.FramesTx, a.counters.FramesRx, a.counters.Flits, a.counters.Drops, a.counters.Instret)
}

// runInproc measures one in-process workload with tracing off.
func runInproc(w *workload, opt options, res *result) error {
	// Set-up: fresh deployments, each timed from nothing to the end of its
	// first window. The last one is kept and measured. The previous one is
	// collected off the clock, so every repetition starts from the same heap
	// and the peak resident set does not depend on when the GC happened to
	// run.
	var r *rig
	var sched schedule
	var setups []float64
	var spent float64
	for len(setups) < minSetupReps || (len(setups) < maxSetupReps && spent < setupShare*opt.seconds) {
		r = nil
		runtime.GC()
		// One sample is as many set-ups as fit in minSetupSample, so that a
		// 50 us set-up is timed over dozens of deployments at a stretch.
		n, t0 := 0, time.Now()
		for n == 0 || time.Since(t0) < minSetupSample {
			var err error
			if r, err = w.build(opt.seed, false); err != nil {
				return err
			}
			sched = w.schedule(r.runner.Step(), opt.seconds)
			r.chunk = sched.chunk
			if _, err := r.advance(sched.step, nil); err != nil {
				return err
			}
			n++
		}
		took := time.Since(t0).Seconds()
		setups = append(setups, took/float64(n))
		spent += took
	}
	res.sample("setup_s", "s", setups)

	// Warm-up to the verified prefix; its end state is what the oracle
	// must reproduce.
	if sched.warm > sched.step {
		if _, err := r.advance(sched.warm-sched.step, nil); err != nil {
			return err
		}
	}
	prefix, err := r.state()
	if err != nil {
		return fmt.Errorf("state at warm-up end: %w", err)
	}

	var rates []float64
	for i := 0; i < regions; i++ {
		wall, err := r.region(sched.region, nil)
		res.op(err)
		if err != nil {
			continue
		}
		rates = append(rates, float64(sched.region)/wall.Seconds())
	}
	res.sample("sim_rate_hz", "Hz", rates)

	final, err := r.state()
	res.check("state at horizon", errText(err))
	if err == nil {
		res.Digest = final.digest(r.runner.Cycle())
	}

	// Verification: the same prefix on a fresh deployment with the oracle
	// settings must land in the identical state.
	res.check("oracle prefix", verifyPrefix(w, opt.seed, sched, prefix))
	if r.reference != nil {
		ref, err := r.reference(uint64(sched.warm))
		if err != nil {
			res.check("manager.ReferenceHashes", err.Error())
		} else {
			res.check("manager.ReferenceHashes", state{hashes: ref, counters: prefix.counters}.diff(prefix))
		}
	}
	return nil
}

func errText(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

// verifyPrefix re-runs the warm-up on an oracle build and returns how its
// end state differs from want ("" if it does not).
func verifyPrefix(w *workload, seed uint64, sched schedule, want state) string {
	o, err := w.build(seed, true)
	if err != nil {
		return err.Error()
	}
	o.chunk = sched.chunk
	if _, err := o.advance(sched.warm, nil); err != nil {
		return err.Error()
	}
	got, err := o.state()
	if err != nil {
		return err.Error()
	}
	return want.diff(got)
}
