package manager

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/ethernet"
)

// TestWorkloadSpecValidation: a spec arrives over the control wire, so a
// workload StartRawStream cannot install must be rejected by Topology()
// and by BuildPartition (the assign path) with an error, never reach the
// build and panic a shard.
func TestWorkloadSpecValidation(t *testing.T) {
	valid := WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: 1, StopAt: 12000}
	for _, tc := range []struct {
		name string
		edit func(w *WorkloadSpec)
		ok   bool
	}{
		{"valid", func(w *WorkloadSpec) {}, true},
		{"never stops", func(w *WorkloadSpec) { w.StopAt = 0 }, true},
		{"max frame", func(w *WorkloadSpec) { w.FrameBytes = ethernet.MaxFrameLen }, true},
		{"unknown kind", func(w *WorkloadSpec) { w.Kind = "memcached" }, false},
		{"frame below header", func(w *WorkloadSpec) { w.FrameBytes = 5 }, false},
		{"header-only frame", func(w *WorkloadSpec) { w.FrameBytes = ethernet.HeaderLen }, false},
		{"oversize frame", func(w *WorkloadSpec) { w.FrameBytes = ethernet.MaxFrameLen + 1 }, false},
		{"zero rate", func(w *WorkloadSpec) { w.Gbps = 0 }, false},
		{"negative rate", func(w *WorkloadSpec) { w.Gbps = -1 }, false},
		{"NaN rate", func(w *WorkloadSpec) { w.Gbps = math.NaN() }, false},
		{"infinite rate", func(w *WorkloadSpec) { w.Gbps = math.Inf(1) }, false},
		{"stops at start", func(w *WorkloadSpec) { w.StopAt = w.StartAt }, false},
		{"stops before start", func(w *WorkloadSpec) { w.StopAt = w.StartAt - 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := RackSpec(2, DeployConfig{LinkLatency: 512, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			w := valid
			tc.edit(&w)
			spec.Workload = &w
			if _, _, err := spec.Topology(); (err == nil) != tc.ok {
				t.Errorf("Topology() error = %v, want ok=%v", err, tc.ok)
			}
			if _, err := BuildPartition(spec, []int{0}, time.Second); (err == nil) != tc.ok {
				t.Errorf("BuildPartition error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestPartitionBridgeErrZeroAllocs: every shard checks BridgeErr once per
// token window, so it must walk the units in order without copying them.
func TestPartitionBridgeErrZeroAllocs(t *testing.T) {
	spec, err := RackSpec(4, DeployConfig{LinkLatency: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPartition(spec, []int{3, 0, 2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 3}; !reflect.DeepEqual(p.Units, want) {
		t.Errorf("Units = %v, want ascending %v", p.Units, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.BridgeErr() }); allocs != 0 {
		t.Errorf("BridgeErr allocates %.1f times per call, want 0", allocs)
	}
}
