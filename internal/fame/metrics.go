package fame

import (
	"repro/internal/obs"
)

// This file wires the token runtime into the observability layer
// (internal/obs). The runner's hot loops are the costliest code in the
// whole simulator, so the instruments follow two rules:
//
//   - a nil *runnerMetrics disables everything: the uninstrumented loop
//     executes exactly the pre-obs code (one pointer nil check per round);
//   - every enabled-path record is an uncontended atomic add (obs
//     instruments); clock reads — the one genuinely expensive part — are
//     paid only on sampled rounds (one round in tickSampleMask+1), two
//     per tick so ring-wait time never pollutes the tick histogram.
//     The sim-rate cost has a <5% budget; `go test -bench DeployedRun
//     ./internal/manager` measures it.
//
// Metric names, all under the fame_ prefix:
//
//	fame_rounds_total                        rounds completed (all modes)
//	fame_cycles_total                        target cycles simulated
//	fame_run_wall_nanos_total                wall time inside round loops
//	fame_tokens_total                        valid tokens emitted, all endpoints
//	fame_pool_allocs_total                   batch-pool misses (fresh allocations)
//	fame_pool_drops_total                    recycled batches dropped (want: 0)
//	fame_cycle                               gauge: current target cycle
//	fame_tick_nanos{endpoint=E}              histogram: sampled TickBatch wall time
//	fame_endpoint_tokens_total{endpoint=E}   valid tokens emitted by E
//
// Token and round counters are exact for every worker count — they are
// pure functions of target behaviour and the equivalence tests hold them
// to it. fame_tick_nanos is host-side profiling and is sampled: every
// worker times the same rounds (round index ≡ 0 mod tickSampleMask+1), so
// histograms stay comparable across worker counts.
type runnerMetrics struct {
	rounds     *obs.Counter
	cycles     *obs.Counter
	runWall    *obs.Counter
	tokens     *obs.Counter
	poolAllocs *obs.Counter
	poolDrops  *obs.Counter
	cycleGauge *obs.Gauge

	// Per-endpoint instruments, indexed like Runner.endpoints. Histograms
	// and counters are internally atomic, so the parallel runner's worker
	// goroutines need no extra synchronisation when writing them.
	tick     []*obs.Histogram
	epTokens []*obs.Counter
}

// EnableMetrics attaches the runner to a registry: every subsequent Run,
// RunParallel and Measure updates the fame_* instruments described in
// metrics.go. Passing nil detaches (the default). Like SetInjector, it
// may be called between runs; mid-run changes are not supported.
//
// Per-endpoint instruments are named by endpoint, so they are created
// once the topology is final (at first build); enabling metrics after the
// first Run is also fine.
func (r *Runner) EnableMetrics(reg *obs.Registry) {
	r.metricsReg = reg
	if reg == nil {
		r.metrics = nil
		return
	}
	if r.built {
		r.initMetrics()
	}
}

// initMetrics instantiates the instruments against r.metricsReg. Called
// from build() (or EnableMetrics when already built), never on hot paths.
func (r *Runner) initMetrics() {
	reg := r.metricsReg
	m := &runnerMetrics{
		rounds:     reg.Counter("fame_rounds_total"),
		cycles:     reg.Counter("fame_cycles_total"),
		runWall:    reg.Counter("fame_run_wall_nanos_total"),
		tokens:     reg.Counter("fame_tokens_total"),
		poolAllocs: reg.Counter("fame_pool_allocs_total"),
		poolDrops:  reg.Counter("fame_pool_drops_total"),
		cycleGauge: reg.Gauge("fame_cycle"),
		tick:       make([]*obs.Histogram, len(r.endpoints)),
		epTokens:   make([]*obs.Counter, len(r.endpoints)),
	}
	for i, e := range r.endpoints {
		m.tick[i] = reg.Histogram(obs.Label("fame_tick_nanos", "endpoint", e.Name()))
		m.epTokens[i] = reg.Counter(obs.Label("fame_endpoint_tokens_total", "endpoint", e.Name()))
	}
	r.metrics = m
}

// tickSampleMask selects the rounds whose endpoint ticks are timed:
// round indices where round&tickSampleMask == 0, i.e. one round in 32.
// The round index restarts at every Run/RunParallel call, so short
// slices (a supervisor's 4-step health-check cadence) still sample at
// least once per slice. A sampled round costs two time.Now per endpoint;
// on hosts with a slow clocksource that is the dominant instrumentation
// cost, which is why the rate is this conservative.
const tickSampleMask = 31

// sampledRounds returns how many of n rounds carry tick timings — the
// expected fame_tick_nanos observation count per endpoint for a run of n
// rounds (exported to tests via the obs_test helpers).
func sampledRounds(n uint64) uint64 { return (n + tickSampleMask) / (tickSampleMask + 1) }
