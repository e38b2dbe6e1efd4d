package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the repository's BENCHMARK.json, the one place the
// metric names, directions and regression bounds are fixed.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// verdict is how two sets of the same code compare on one (metric,
// workload) pairing.
type verdict string

const (
	agree      verdict = "agree"
	disagree   verdict = "DISAGREE"
	unresolved verdict = "unresolved"
)

// setupFloorS is the absolute change below which setup_s never counts as
// a difference: set-up here takes 30 us to 70 ms, and a relative bound
// alone would fail a 20 us wobble on the smallest of them.
const setupFloorS = 0.05

// compare judges one pairing: the medians of set A and set B, each with
// the samples it is the median of (nil for single-valued metrics), against
// the metric's relative bound and absolute floor. A pairing whose own
// samples spread wider than the bound cannot certify anything and is
// unresolved, whatever its gap.
func compare(a, b float64, samplesA, samplesB []float64, bound, floor float64) (gap float64, v verdict) {
	if a != 0 {
		gap = (b - a) / math.Abs(a)
	}
	switch {
	case math.Abs(b-a) <= floor:
		return gap, agree
	case spread(samplesA) > bound || spread(samplesB) > bound:
		return gap, unresolved
	case math.Abs(gap) > bound:
		return gap, disagree
	}
	return gap, agree
}

// selfCheck runs the untraced suite twice, back to back, and demands that
// the two sets agree within the benchmark's own bounds: the noise floor a
// later comparison of two commits has to clear.
func selfCheck(opt options, stdout io.Writer) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck reads the bounds from BENCHMARK.json in the working directory:", err)
		return 1
	}
	opt.trace = false
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(stdout, "== set %c ==\n", 'A'+i)
		var code int
		if sets[i], code = runAll(opt, stdout); code != 0 || len(sets[i]) != len(workloads) {
			return 1
		}
	}
	fmt.Fprintf(stdout, "\n%-16s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "set A", "set B", "gap", "bound", "verdict")
	code := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, m := range bf.EndToEnd {
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			gap, v := compare(a.Metrics[m.Name].Value, b.Metrics[m.Name].Value, a.Samples[m.Name], b.Samples[m.Name], m.Bound, floor)
			if v != agree {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-12s %14.6g %14.6g %+7.2f%% %6.0f%%  %s\n", a.Workload, m.Name,
				a.Metrics[m.Name].Value, b.Metrics[m.Name].Value, 100*gap, 100*m.Bound, v)
		}
	}
	return code
}
