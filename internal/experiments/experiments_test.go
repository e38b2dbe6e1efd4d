package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The experiment tests assert the *shape* of each paper result at Quick
// scale: who wins, by roughly what factor, and where the crossovers fall.

func TestRegistryRunsEverythingCheap(t *testing.T) {
	// The static tables must render through the registry.
	for _, name := range []string{"tableI", "tableII", "utilization", "cost"} {
		res, err := Run(name, Scale{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Title() == "" || res.Render() == "" {
			t.Errorf("%s: empty result", name)
		}
	}
	if _, err := Run("nope", Scale{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	names := Names()
	if len(names) < 12 {
		t.Errorf("only %d experiments registered: %v", len(names), names)
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Measured parallels ideal with a fixed ~34 us offset.
	for _, row := range r.Rows {
		if ov := row.Overhead(); ov < 30 || ov > 38 {
			t.Errorf("lat %g us: overhead = %.2f us, want ~34", row.LinkLatencyUs, ov)
		}
	}
	spread := r.Rows[1].Overhead() - r.Rows[0].Overhead()
	if math.Abs(spread) > 2 {
		t.Errorf("offset not fixed across latencies: %.2f us spread", spread)
	}
	if r.Rows[1].MeasuredRTTUs <= r.Rows[0].MeasuredRTTUs {
		t.Error("RTT did not grow with link latency")
	}
}

func TestBandwidthShape(t *testing.T) {
	ip, err := Iperf(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if ip.GoodputGbps < 1.0 || ip.GoodputGbps > 2.0 {
		t.Errorf("iperf = %.2f Gbit/s, want ~1.4", ip.GoodputGbps)
	}
	bm, err := BareMetal(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if bm.WireGbps < 85 || bm.WireGbps > 115 {
		t.Errorf("bare-metal = %.1f Gbit/s, want ~100", bm.WireGbps)
	}
	// The headline contrast: bare metal is ~70x the Linux stack.
	if bm.WireGbps < 40*ip.GoodputGbps {
		t.Errorf("bare-metal (%.1f) not dramatically above iperf (%.2f)", bm.WireGbps, ip.GoodputGbps)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plateaus := map[float64]float64{}
	for _, s := range r.Series {
		plateaus[s.RateGbps] = s.PlateauGbps
	}
	// 10 Gbit/s senders: 8 x 10 = 80, below saturation.
	if p := plateaus[10]; p < 72 || p > 92 {
		t.Errorf("10G plateau = %.1f, want ~80", p)
	}
	// 100 Gbit/s senders saturate the 200 Gbit/s root link.
	if p := plateaus[100]; p < 190 || p > 210 {
		t.Errorf("100G plateau = %.1f, want ~200 (saturated)", p)
	}
	// Ramp: bandwidth in the first buckets is below the plateau.
	for _, s := range r.Series {
		if len(s.Gbps) < 4 {
			t.Fatalf("series too short: %v", s.Gbps)
		}
		if s.Gbps[0] >= s.PlateauGbps*0.9 {
			t.Errorf("%gG series shows no ramp: first bucket %.1f vs plateau %.1f", s.RateGbps, s.Gbps[0], s.PlateauGbps)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string][]Fig7Point{}
	for i, cfg := range r.Configs {
		byLabel[cfg.Label] = r.Points[i]
	}
	high := len(byLabel["4 threads pinned"]) - 1
	pinned := byLabel["4 threads pinned"][high]
	imbalanced := byLabel["5 threads"][high]
	if imbalanced.P95Us < pinned.P95Us*1.3 {
		t.Errorf("5-thread p95 (%.0f) not sharply above pinned (%.0f) at high load", imbalanced.P95Us, pinned.P95Us)
	}
	// Tail inflation dominates median movement.
	if (imbalanced.P95Us - pinned.P95Us) <= 2*(imbalanced.P50Us-pinned.P50Us) {
		t.Errorf("tail shift (%.0f) should dwarf median shift (%.0f)",
			imbalanced.P95Us-pinned.P95Us, imbalanced.P50Us-pinned.P50Us)
	}
	// At low load the three configurations are close.
	lowPinned := byLabel["4 threads pinned"][0]
	lowImb := byLabel["5 threads"][0]
	if lowImb.P95Us > lowPinned.P95Us*1.5 {
		t.Errorf("low-load 5-thread p95 (%.0f) should be near pinned (%.0f)", lowImb.P95Us, lowPinned.P95Us)
	}
}

// checkMeasured asserts a host-timed rate is a real measurement. Its
// size depends on the host and its load, so the shape tests assert
// nothing more about it; the scaling trends are checked on the
// deterministic projections instead.
func checkMeasured(t *testing.T, what string, mhz float64) {
	t.Helper()
	if !(mhz > 0) || math.IsInf(mhz, 0) {
		t.Errorf("%s: measured rate %v MHz, want finite and > 0", what, mhz)
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		checkMeasured(t, fmt.Sprintf("%d nodes", row.Nodes), row.MeasuredMHz)
		if i > 0 && row.ProjStandardMHz > r.Rows[i-1].ProjStandardMHz {
			t.Errorf("projected rate rose with scale: %+v then %+v", r.Rows[i-1], row)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.Rows {
		checkMeasured(t, fmt.Sprintf("%g us links", row.LinkLatencyUs), row.MeasuredMHz)
		if i > 0 && row.ProjEC2MHz < r.Rows[i-1].ProjEC2MHz {
			t.Errorf("projected rate fell with link latency: %+v", r.Rows)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Servers != 64 || r.ToRs != 8 || r.Aggs != 2 {
		t.Errorf("quick topology = %d servers, %d ToR, %d agg", r.Servers, r.ToRs, r.Aggs)
	}
	if r.SimRateMHz <= 0 {
		t.Error("no measured rate")
	}
}

func TestTableIIIShape(t *testing.T) {
	r, err := TableIII(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	tor, agg, dc := r.Rows[0], r.Rows[1], r.Rows[2]
	// Each tier adds 4 link crossings of 2 us: ~8 us on the median.
	d1 := agg.P50Us - tor.P50Us
	d2 := dc.P50Us - agg.P50Us
	if d1 < 6 || d1 > 10 || d2 < 6 || d2 > 10 {
		t.Errorf("per-tier p50 deltas = %.2f, %.2f us, want ~8", d1, d2)
	}
	// p95 above p50 everywhere (the tail is dominated by variability).
	for _, row := range r.Rows {
		if row.P95Us <= row.P50Us {
			t.Errorf("%s: p95 (%.1f) <= p50 (%.1f)", row.Config, row.P95Us, row.P50Us)
		}
		if row.AggregateQPS <= 0 {
			t.Errorf("%s: no throughput", row.Config)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var genomeHalf, qsortHalf *Fig11Point
	for i := range r.Points {
		p := &r.Points[i]
		if !p.EvictionsEqual {
			t.Errorf("%s @ %.0f%%: evictions differ across modes", p.Workload, p.LocalFraction*100)
		}
		if p.LocalFraction == 0.5 {
			if p.Workload == "Genome" {
				genomeHalf = p
			} else {
				qsortHalf = p
			}
		}
	}
	if genomeHalf == nil || qsortHalf == nil {
		t.Fatal("missing 50% points")
	}
	if genomeHalf.Speedup < 1.2 || genomeHalf.Speedup > 1.6 {
		t.Errorf("Genome@50%% speedup = %.2f, want ~1.4", genomeHalf.Speedup)
	}
	if qsortHalf.Speedup >= genomeHalf.Speedup {
		t.Errorf("Qsort speedup (%.2f) should trail Genome (%.2f)", qsortHalf.Speedup, genomeHalf.Speedup)
	}
	if genomeHalf.MetaRatio < 2.0 || genomeHalf.MetaRatio > 3.0 {
		t.Errorf("metadata ratio = %.2f, want ~2.5", genomeHalf.MetaRatio)
	}
}

func TestRendersMentionPaperReferences(t *testing.T) {
	res, err := Run("cost", Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "$12.8M") {
		t.Error("cost table missing the FPGA-value headline")
	}
}

func TestAblationNewQShape(t *testing.T) {
	r, err := AblationNewQ(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Batch=1 forfeits the locality benefit: metadata ratio ~1 and a
	// slower runtime than the batched configuration.
	unbatched, batched := r.Rows[0], r.Rows[len(r.Rows)-1]
	if unbatched.MetaRatioVsSW > 1.3 {
		t.Errorf("unbatched metadata ratio = %.2f, want ~1", unbatched.MetaRatioVsSW)
	}
	if batched.MetaRatioVsSW < 2.0 {
		t.Errorf("batched metadata ratio = %.2f, want ~2.5", batched.MetaRatioVsSW)
	}
	if batched.RuntimeUs >= unbatched.RuntimeUs {
		t.Errorf("batched runtime (%.0f us) not below unbatched (%.0f us)", batched.RuntimeUs, unbatched.RuntimeUs)
	}
	// Even the unbatched PFA beats software paging (no traps on the
	// critical path).
	if unbatched.RuntimeUs >= r.SWRuntimeUs {
		t.Errorf("unbatched PFA (%.0f us) not below software paging (%.0f us)", unbatched.RuntimeUs, r.SWRuntimeUs)
	}
}

func TestAblationSwitchBufShape(t *testing.T) {
	r, err := AblationSwitchBuf(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	small, large := r.Rows[0], r.Rows[len(r.Rows)-1]
	if small.DropsBuf == 0 {
		t.Error("8 KiB buffer dropped nothing under 4:1 incast")
	}
	if large.DropsBuf >= small.DropsBuf {
		t.Errorf("larger buffer dropped more: %d vs %d", large.DropsBuf, small.DropsBuf)
	}
	if large.Delivered <= small.Delivered {
		t.Errorf("larger buffer delivered fewer packets: %d vs %d", large.Delivered, small.Delivered)
	}
}

func TestAblationBatchingShape(t *testing.T) {
	r, err := AblationBatching(Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	small, big := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Cycle accuracy: the target-level RTT is bit-identical across batch
	// sizes.
	if small.PingRTTUs != big.PingRTTUs {
		t.Errorf("RTT changed with batch size: %.3f vs %.3f us", small.PingRTTUs, big.PingRTTUs)
	}
	// Host performance: full-latency batching is dramatically faster.
	if big.MeasuredMHz < 3*small.MeasuredMHz {
		t.Errorf("batch %d (%.0f MHz) not clearly faster than batch %d (%.0f MHz)",
			big.BatchTokens, big.MeasuredMHz, small.BatchTokens, small.MeasuredMHz)
	}
}
