package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// spread is the inter-quartile range of xs as a share of its median, the
// noise figure the benchmark contract judges steadiness by. Quartiles
// are Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method, ported line for line), so a spread printed here is the number
// the driver computes from the same values. Fewer than two samples have
// no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// tailPercentiles are the tail points a timing may be reported at, lowest
// first, in hundredths of a percent so the sample arithmetic stays exact.
var tailPercentiles = []int{9000, 9900, 9990, 9999}

// highestPercentile returns the highest tail percentile that still has at
// least ten of n samples beyond it, and false when even p90 does not
// (n < 100): a tail read off fewer than ten samples is an anecdote.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if n*(10000-p) >= 10*10000 {
			best, ok = float64(p)/100, true
		}
	}
	return best, ok
}

// twoHorizon recovers a steady-state rate and a fixed cost from two runs
// of the same configuration to different horizons: whatever both runs pay
// once (spawn, handshake, teardown) cancels in the difference, so the rate
// is Δhorizon/Δwall and the fixed cost is what the short run took beyond
// its horizon at that rate. ok is false when the long run was not slower
// than the short one (the difference carries no information).
func twoHorizon(hShort, hLong uint64, wallShort, wallLong float64) (rateHz, fixedS float64, ok bool) {
	if hLong <= hShort || wallLong <= wallShort {
		return 0, 0, false
	}
	rateHz = float64(hLong-hShort) / (wallLong - wallShort)
	fixedS = wallShort - float64(hShort)/rateHz
	return rateHz, fixedS, true
}
