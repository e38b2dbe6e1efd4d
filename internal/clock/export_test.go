package clock

import (
	"math"
	"time"
)

// Probes and helpers that only this package's tests use.

// CyclesIn returns the number of target cycles in d, rounded to nearest so
// that exact conversions (e.g. 2 µs at 3.2 GHz = 6400 cycles) survive the
// float arithmetic.
func (c Clock) CyclesIn(d time.Duration) Cycles {
	return Cycles(math.Round(d.Seconds() * float64(c.freq)))
}
