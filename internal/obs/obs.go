// Package obs is the observability layer for the simulation hot paths.
//
// The paper's headline claims are quantitative — simulation rate versus
// scale (Figures 8 and 9) and token-transport overhead — so the runtime
// needs per-link and per-endpoint telemetry that is cheap enough to leave
// enabled while measuring. This package provides exactly three instrument
// kinds, all built on single atomic words so that instrumented hot loops
// pay a handful of uncontended atomic adds per round and nothing else:
//
//   - Counter: a monotonically increasing uint64 (events, tokens, bytes);
//   - Gauge: a settable int64 (queue depth, buffered bytes, progress);
//   - Histogram: power-of-two-bucketed uint64 observations with count and
//     sum (tick latencies in nanoseconds).
//
// Instruments live in a named Registry. Registries are cheap maps guarded
// by a mutex, but the mutex is only taken at registration and snapshot
// time — never on the instrument fast path. Snapshot() captures a
// consistent-enough point-in-time view that renders as JSON, Prometheus
// text exposition format, or a fixed-width table (see snapshot.go).
//
// Naming follows the Prometheus convention: snake_case metric names with
// a subsystem prefix and a _total suffix on counters, and label sets
// rendered inline (use Label to build them), e.g.
//
//	fame_rounds_total
//	fame_tick_nanos{endpoint="tor0-s3"}
//	switch_out_queued_bytes{switch="tor0"}
//
// Instrumented packages accept a *Registry and treat a nil registry as
// "metrics disabled": every constructor in this package returns usable
// no-op-free instruments, and the wiring helpers in fame, switchmodel,
// transport and manager guard their hooks with a single nil check, so the
// uninstrumented hot loop is byte-identical to the pre-obs code.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of histogram buckets: observation v lands in
// bucket bits.Len64(v), so bucket b counts observations in
// [2^(b-1), 2^b). 65 buckets cover the full uint64 range.
const histBuckets = 65

// Histogram accumulates uint64 observations into power-of-two buckets,
// tracking count and sum, safe for concurrent use. Recording costs three
// uncontended atomic adds; there are no locks and no allocation.
//
// Power-of-two buckets trade resolution for speed: the bucket index is a
// single bit-length instruction, and a factor-of-two resolution is plenty
// for the latency distributions this layer exists to expose (a tick that
// regressed from 4 us to 40 us moves three buckets).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// bucketUpperBound returns the exclusive upper edge of bucket b: bucket 0
// holds only the observation 0, bucket b>0 holds [2^(b-1), 2^b).
func bucketUpperBound(b int) uint64 {
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << b
}

// Label renders a metric name with one label pair in Prometheus form:
// Label("fame_tick_nanos", "endpoint", "tor0-s3") is
// `fame_tick_nanos{endpoint="tor0-s3"}`. Label values are escaped per the
// exposition format (backslash, double-quote, newline).
func Label(name, key, value string) string {
	return name + "{" + key + "=\"" + escapeLabel(value) + "\"}"
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer("\\", "\\\\", "\"", "\\\"", "\n", "\\n")
	return r.Replace(v)
}

// Registry is a named set of instruments. Instruments are registered by
// full name (including any inline label set) and retrieved get-or-create
// style, so independent components can share one registry without
// coordination. All methods are safe for concurrent use; nothing in the
// registry is touched on the instrument fast paths.
type Registry struct {
	name string

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry. The name identifies the registry
// in snapshots (e.g. one registry per deployed cluster).
func NewRegistry(name string) *Registry {
	return &Registry{
		name:       name,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. It panics
// if the name is already registered as a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name, "counter", r.counters)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name, "gauge", r.gauges)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFresh(name, "histogram", r.histograms)
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// checkFresh panics if name is registered under a kind other than want.
// The caller holds r.mu and has already established that name is absent
// from want's own map.
func (r *Registry) checkFresh(name, want string, _ interface{}) {
	kinds := []struct {
		kind string
		has  bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"histogram", r.histograms[name] != nil},
	}
	for _, k := range kinds {
		if k.has && k.kind != want {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, k.kind, want))
		}
	}
}

// sortedKeys returns map keys in sorted order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
