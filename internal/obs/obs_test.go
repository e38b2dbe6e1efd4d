package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeConcurrency hammers one counter, one gauge and one
// histogram from many goroutines; under -race this doubles as the data
// race check, and the final values verify no increments were lost.
func TestCounterGaugeConcurrency(t *testing.T) {
	reg := NewRegistry("race")
	c := reg.Counter("events_total")
	g := reg.Gauge("depth")
	h := reg.Histogram("latency_nanos")

	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(i%1000 + 1))
				// get-or-create from multiple goroutines must also be safe
				// and return the same instrument.
				if reg.Counter("events_total") != c {
					panic("registry returned a different counter")
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Snapshotting while idle must agree with direct reads.
	s := reg.Snapshot()
	if s.Counters["events_total"] != workers*perWorker {
		t.Errorf("snapshot counter = %d", s.Counters["events_total"])
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with writers;
// it asserts monotonicity of the counter across snapshots (and, under
// -race, the absence of data races on the snapshot path).
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry("live")
	c := reg.Counter("ticks_total")
	h := reg.Histogram("tick_nanos")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50_000; i++ {
			c.Inc()
			h.Observe(uint64(i))
		}
	}()
	var last uint64
	for i := 0; i < 100; i++ {
		s := reg.Snapshot()
		v := s.Counters["ticks_total"]
		if v < last {
			t.Fatalf("counter went backwards: %d after %d", v, last)
		}
		last = v
	}
	<-done
}

// TestHistogramBuckets pins the power-of-two bucketing: observation v
// lands in the bucket whose upper bound is the next power of two.
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry("buckets")
	h := reg.Histogram("h")
	h.Observe(0) // bucket 0, bound 0
	h.Observe(1) // bucket 1, bound 2
	h.Observe(2) // bucket 2, bound 4
	h.Observe(3) // bucket 2, bound 4
	h.Observe(4) // bucket 3, bound 8
	got := reg.Snapshot().Histograms["h"]
	want := HistogramSnapshot{Count: 5, Sum: 10, Buckets: []BucketCount{{0, 1}, {2, 1}, {4, 2}, {8, 1}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	if m := got.Mean(); m != 2 {
		t.Errorf("mean = %v, want 2", m)
	}
}

// golden registry used by both output-format tests.
func goldenRegistry() *Registry {
	reg := NewRegistry("golden")
	reg.Counter("fame_rounds_total").Add(12)
	reg.Counter(Label("transport_bytes_sent_total", "bridge", "east")).Add(4096)
	reg.Gauge(Label("switch_out_queued_bytes", "switch", "tor0")).Set(1536)
	h := reg.Histogram(Label("fame_tick_nanos", "endpoint", "tor0-s0"))
	h.Observe(3)
	h.Observe(5)
	h.Observe(900)
	return reg
}

func TestGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "registry": "golden",
  "counters": {
    "fame_rounds_total": 12,
    "transport_bytes_sent_total{bridge=\"east\"}": 4096
  },
  "gauges": {
    "switch_out_queued_bytes{switch=\"tor0\"}": 1536
  },
  "histograms": {
    "fame_tick_nanos{endpoint=\"tor0-s0\"}": {
      "count": 3,
      "sum": 908,
      "buckets": [
        {
          "le": 4,
          "count": 1
        },
        {
          "le": 8,
          "count": 1
        },
        {
          "le": 1024,
          "count": 1
        }
      ]
    }
  }
}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And it must round-trip as valid JSON.
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if s.Counters["fame_rounds_total"] != 12 {
		t.Errorf("round-trip counter = %d", s.Counters["fame_rounds_total"])
	}
}

func TestGoldenPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE fame_rounds_total counter",
		"fame_rounds_total 12",
		"# TYPE transport_bytes_sent_total counter",
		`transport_bytes_sent_total{bridge="east"} 4096`,
		"# TYPE switch_out_queued_bytes gauge",
		`switch_out_queued_bytes{switch="tor0"} 1536`,
		"# TYPE fame_tick_nanos histogram",
		`fame_tick_nanos_bucket{endpoint="tor0-s0",le="4"} 1`,
		`fame_tick_nanos_bucket{endpoint="tor0-s0",le="8"} 2`,
		`fame_tick_nanos_bucket{endpoint="tor0-s0",le="1024"} 3`,
		`fame_tick_nanos_bucket{endpoint="tor0-s0",le="+Inf"} 3`,
		`fame_tick_nanos_sum{endpoint="tor0-s0"} 908`,
		`fame_tick_nanos_count{endpoint="tor0-s0"} 3`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableRendersEveryKind(t *testing.T) {
	out := goldenRegistry().Snapshot().Table().String()
	for _, want := range []string{"fame_rounds_total", "counter", "gauge", "histogram", "n=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Label("m", "k", `a"b\c`)
	want := `m{k="a\"b\\c"}`
	if got != want {
		t.Errorf("Label = %s, want %s", got, want)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry("collide")
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering gauge over counter name")
		}
	}()
	reg.Gauge("x")
}
