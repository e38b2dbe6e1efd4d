package stats

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5}, {95, 95.05},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("P%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Median = %g", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %g", got)
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Errorf("Min/Max = %g/%g", s.Percentile(0), s.Percentile(100))
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Percentile(50)) || !math.IsNaN(s.Mean()) {
		t.Error("empty sample should yield NaN")
	}
	if s.N() != 0 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSingleValue(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, p := range []float64{0, 1, 50, 95, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("P%g = %g, want 42", p, got)
		}
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Median()
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Errorf("Min after re-add = %g", got)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(vals []float64, pa, pb uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		var s Sample
		for _, v := range vals {
			s.Add(v)
		}
		a, b := float64(pa%101), float64(pb%101)
		if a > b {
			a, b = b, a
		}
		va, vb := s.Percentile(a), s.Percentile(b)
		return va <= vb && va >= s.Percentile(0) && vb <= s.Percentile(100)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile of a sorted distinct sequence brackets correctly.
func TestPercentileAgainstSortProperty(t *testing.T) {
	check := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Sample
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
			s.Add(float64(v))
		}
		sort.Float64s(vals)
		// P50 must lie between the two middle order statistics.
		med := s.Median()
		lo := vals[(len(vals)-1)/2]
		hi := vals[len(vals)/2]
		return med >= lo && med <= hi
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100)
	ts.Accumulate(5, 1)
	ts.Accumulate(99, 2)
	ts.Accumulate(100, 10)
	ts.Accumulate(350, 5)
	times, totals := ts.Points()
	wantTimes := []int64{0, 100, 300}
	wantTotals := []float64{3, 10, 5}
	if len(times) != 3 {
		t.Fatalf("points = %v %v", times, totals)
	}
	for i := range wantTimes {
		if times[i] != wantTimes[i] || totals[i] != wantTotals[i] {
			t.Errorf("point %d = (%d, %g), want (%d, %g)", i, times[i], totals[i], wantTimes[i], wantTotals[i])
		}
	}
}

func TestTimeSeriesBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTimeSeries(0)
}

func TestTable(t *testing.T) {
	tb := NewTable("Config", "50th (us)", "QPS")
	tb.AddRow("Cross-ToR", 79.26, 4691888)
	tb.AddRow("Cross-dc", 93.82, 4077369)
	out := tb.String()
	if !strings.Contains(out, "Cross-ToR") || !strings.Contains(out, "79.26") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
	// All rows should align: same prefix width up to the second column.
	if len(lines[0]) == 0 || lines[1][0] != '-' {
		t.Errorf("separator row malformed: %q", lines[1])
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("drops", 3)
	c.Add("flaps", 1)
	c.Add("drops", 2)
	if got := c.Get("drops"); got != 5 {
		t.Errorf("drops = %d, want 5", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "drops" || names[1] != "flaps" {
		t.Errorf("Names() = %v, want sorted [drops flaps]", names)
	}
	// Concurrent increments must not race or lose counts.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("par", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("par"); got != 800 {
		t.Errorf("par = %d, want 800", got)
	}
	if !strings.Contains(c.String(), "drops") {
		t.Error("rendered table missing counter name")
	}
}
