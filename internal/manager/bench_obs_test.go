package manager

import (
	"testing"

	"repro/internal/obs"
)

// benchmarkDeployedRun measures the per-round cost of a deployed 8-node
// rack under light ping traffic, with and without the observability
// layer attached. Comparing the two benchmarks isolates the true cost of
// metrics on the hot path:
//
//	go test -run - -bench DeployedRun ./internal/manager/
func benchmarkDeployedRun(b *testing.B, withMetrics bool) {
	benchmarkDeployedRunParts(b, withMetrics, withMetrics)
}

func benchmarkDeployedRunParts(b *testing.B, runnerMetrics, switchMetrics bool) {
	topo := rackOf(8)
	c, err := Deploy(topo, DeployConfig{})
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry("bench")
	if runnerMetrics {
		c.Runner.EnableMetrics(reg)
	}
	if switchMetrics {
		for _, sw := range c.Switches {
			sw.EnableMetrics(reg)
		}
	}
	step := c.Runner.Step()
	// Warm the runner before the clock starts.
	if err := c.Runner.Run(4 * step); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Each op is one full tick-sampling period (32 rounds). Sampling
	// restarts with every Run call — round index 0 is always sampled —
	// so single-round ops would time every round and overstate the
	// instrumented cost ~32x over a production-length run.
	for i := 0; i < b.N; i++ {
		// Fresh traffic every slice, scheduled identically in both
		// variants, so the rack never goes fully idle.
		src := c.Servers[i%len(c.Servers)]
		dst := c.Servers[(i+1)%len(c.Servers)]
		src.Ping(c.Runner.Cycle(), dst.IP(), 4, 8*step, nil)
		if err := c.Runner.Run(32 * step); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeployedRunBase(b *testing.B)    { benchmarkDeployedRun(b, false) }
func BenchmarkDeployedRunMetrics(b *testing.B) { benchmarkDeployedRun(b, true) }

// BenchmarkDeployedRunRunnerOnly instruments only the runner (not the
// switch), to attribute overhead between the two hot-path publishers.
func BenchmarkDeployedRunRunnerOnly(b *testing.B) {
	benchmarkDeployedRunParts(b, true, false)
}

// BenchmarkDeployedRunSwitchOnly instruments only the switch.
func BenchmarkDeployedRunSwitchOnly(b *testing.B) {
	benchmarkDeployedRunParts(b, false, true)
}
