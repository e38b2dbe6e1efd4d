// Package clock provides target-time bookkeeping for cycle-exact
// simulation. When the paper refers to a server blade running at frequency
// f (e.g. 3.2 GHz), it means that every model with a notion of target time
// treats one cycle as 1/f seconds; this package centralises that
// conversion.
package clock

import (
	"fmt"
	"math"
	"time"
)

// Hz is a clock frequency in cycles per second.
type Hz float64

// Common frequencies used throughout the FireSim evaluation.
const (
	KHz Hz = 1e3
	MHz Hz = 1e6
	GHz Hz = 1e9
)

// DefaultTargetClock is the 3.2 GHz target processor clock used for all
// blade configurations in the paper (Table I).
const DefaultTargetClock = 3.2 * GHz

// Cycles is a duration expressed in target clock cycles.
type Cycles int64

// Clock converts between target cycles and wall-clock-style durations at a
// fixed frequency.
type Clock struct {
	freq Hz
}

// New returns a clock at the given frequency. It panics on non-positive
// frequencies, which indicate a construction bug rather than a runtime
// condition.
func New(freq Hz) Clock {
	if freq <= 0 {
		panic(fmt.Sprintf("clock: frequency must be positive, got %v", freq))
	}
	return Clock{freq: freq}
}

// Freq returns the clock frequency.
func (c Clock) Freq() Hz { return c.freq }

// Duration returns the target time spanned by n cycles, rounded to the
// nearest nanosecond.
func (c Clock) Duration(n Cycles) time.Duration {
	return time.Duration(math.Round(float64(n) / float64(c.freq) * float64(time.Second)))
}

// Micros returns the target time spanned by n cycles in microseconds as a
// float; most latencies in the paper are reported in microseconds.
func (c Clock) Micros(n Cycles) float64 {
	return float64(n) / float64(c.freq) * 1e6
}

// CyclesInMicros returns the number of whole cycles in us microseconds.
func (c Clock) CyclesInMicros(us float64) Cycles {
	return Cycles(us * 1e-6 * float64(c.freq))
}

// String renders the frequency in a human-readable unit.
func (f Hz) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.4g GHz", float64(f)/float64(GHz))
	case f >= MHz:
		return fmt.Sprintf("%.4g MHz", float64(f)/float64(MHz))
	case f >= KHz:
		return fmt.Sprintf("%.4g KHz", float64(f)/float64(KHz))
	default:
		return fmt.Sprintf("%.4g Hz", float64(f))
	}
}

// SimRate describes how fast a simulation is running relative to the target
// machine: the effective target clock rate achieved per wall-clock second,
// and the slowdown factor versus real time.
type SimRate struct {
	// TargetCycles is how many target cycles were simulated.
	TargetCycles Cycles
	// Wall is how long the host took to simulate them.
	Wall time.Duration
	// TargetFreq is the nominal target clock.
	TargetFreq Hz
}

// EffectiveHz returns the achieved simulation rate in target-Hz (the paper
// reports e.g. "simulates at a 3.4 MHz processor clock rate").
func (r SimRate) EffectiveHz() Hz {
	if r.Wall <= 0 {
		return 0
	}
	return Hz(float64(r.TargetCycles) / r.Wall.Seconds())
}

// Slowdown returns the slowdown factor over real time (the paper's
// "less than 1,000x slowdown").
func (r SimRate) Slowdown() float64 {
	eff := r.EffectiveHz()
	if eff <= 0 {
		return 0
	}
	return float64(r.TargetFreq) / float64(eff)
}

// String summarises the rate like the paper does: "3.40 MHz (941x slowdown)".
func (r SimRate) String() string {
	s := r.Slowdown()
	if s > 0 && s < 1 {
		return fmt.Sprintf("%v (%.1fx faster than the %v target)", r.EffectiveHz(), 1/s, r.TargetFreq)
	}
	return fmt.Sprintf("%v (%.0fx slowdown)", r.EffectiveHz(), s)
}
