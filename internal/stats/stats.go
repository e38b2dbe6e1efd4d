// Package stats provides the measurement utilities used by the workload
// generators and the experiment harness: latency samples with percentile
// extraction (the paper reports 50th and 95th percentiles), bandwidth
// time series (Figure 6 plots bandwidth over time), and fixed-width text
// tables matching the paper's presentation.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Sample collects scalar observations (typically latencies in
// microseconds).
type Sample struct {
	values []float64
	sorted bool
}

// Add records an observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Percentile returns the p-th percentile (0 < p <= 100) using linear
// interpolation between order statistics. It returns NaN for an empty
// sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// P95 returns the 95th percentile, the tail metric used throughout the
// paper's memcached experiments.
func (s *Sample) P95() float64 { return s.Percentile(95) }

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// TimeSeries accumulates a value (e.g. bytes) into fixed-width buckets of
// simulated time, for bandwidth-over-time plots.
type TimeSeries struct {
	// BucketWidth is the bucket size in the series' time unit (cycles).
	BucketWidth int64
	buckets     map[int64]float64
}

// NewTimeSeries returns a series with the given bucket width.
func NewTimeSeries(bucketWidth int64) *TimeSeries {
	if bucketWidth <= 0 {
		panic(fmt.Sprintf("stats: bucket width must be positive, got %d", bucketWidth))
	}
	return &TimeSeries{BucketWidth: bucketWidth, buckets: make(map[int64]float64)}
}

// Accumulate adds v at time t.
func (ts *TimeSeries) Accumulate(t int64, v float64) {
	ts.buckets[t/ts.BucketWidth] += v
}

// Points returns (bucket start time, total) pairs in time order.
func (ts *TimeSeries) Points() (times []int64, totals []float64) {
	keys := make([]int64, 0, len(ts.buckets))
	for k := range ts.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		times = append(times, k*ts.BucketWidth)
		totals = append(totals, ts.buckets[k])
	}
	return times, totals
}

// Counters is a set of named monotonic counters with deterministic
// (sorted) iteration order, safe for concurrent use. The fault-injection
// subsystem reports through it, so two runs with the same seed render
// byte-identical counter tables.
type Counters struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]uint64)} }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta uint64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value (zero if never incremented).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table renders the counters as a two-column table in name order.
func (c *Counters) Table() *Table {
	t := NewTable("Counter", "Value")
	for _, n := range c.Names() {
		t.AddRow(n, c.Get(n))
	}
	return t
}

// String renders the counter table.
func (c *Counters) String() string { return c.Table().String() }

// Table renders fixed-width text tables like the paper's.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
