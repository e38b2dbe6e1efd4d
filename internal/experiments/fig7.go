package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/manager"
	"repro/internal/stats"
)

func init() {
	register("fig7", func(sc Scale) (Result, error) { return Fig7(sc) })
}

// Fig7Config is one memcached server configuration from the experiment.
type Fig7Config struct {
	// Label matches the paper's legend.
	Label   string
	Threads int
	Pinned  bool
}

// Fig7Point is one load point for one configuration.
type Fig7Point struct {
	OfferedQPS   float64
	AchievedQPS  float64
	P50Us, P95Us float64
}

// Fig7Result is the full sweep.
type Fig7Result struct {
	Configs []Fig7Config
	// Points[i] are the load points for Configs[i].
	Points [][]Fig7Point
}

// Title implements Result.
func (Fig7Result) Title() string {
	return "Figure 7: memcached thread-imbalance tail latency"
}

// Render implements Result.
func (r Fig7Result) Render() string {
	var b strings.Builder
	t := stats.NewTable("Config", "Offered QPS", "Achieved QPS", "p50 (us)", "p95 (us)")
	for i, cfg := range r.Configs {
		for _, p := range r.Points[i] {
			t.AddRow(cfg.Label, p.OfferedQPS, p.AchievedQPS, p.P50Us, p.P95Us)
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nPaper reference: 5 threads on 4 cores inflates p95 sharply while p50 is\n" +
		"essentially unchanged; unpinned 4-thread p95 tracks the 5-thread curve at low-mid\n" +
		"load and converges to the pinned curve at high load.\n")
	return b.String()
}

// Fig7 runs the Section IV-E experiment: an 8-node cluster (one 4-core
// memcached server, seven mutilate load generators) on a 200 Gbit/s, 2 us
// network; the server runs 4 threads, 5 threads, or 4 threads pinned
// one-to-a-core.
func Fig7(sc Scale) (Fig7Result, error) {
	configs := []Fig7Config{
		{Label: "4 threads", Threads: 4, Pinned: false},
		{Label: "5 threads", Threads: 5, Pinned: false},
		{Label: "4 threads pinned", Threads: 4, Pinned: true},
	}
	loads := []float64{40_000, 90_000, 120_000, 135_000, 145_000}
	window := clock.Cycles(320_000_000) // 100 ms per point
	if sc.Quick {
		loads = []float64{40_000, 135_000}
		window = 96_000_000 // 30 ms
	}

	res := Fig7Result{Configs: configs, Points: make([][]Fig7Point, len(configs))}
	for ci, cfg := range configs {
		for _, qps := range loads {
			p, err := fig7Point(cfg, qps, window)
			if err != nil {
				return Fig7Result{}, fmt.Errorf("fig7 %s @ %g qps: %w", cfg.Label, qps, err)
			}
			res.Points[ci] = append(res.Points[ci], p)
		}
	}
	return res, nil
}

func fig7Point(cfg Fig7Config, qps float64, window clock.Cycles) (Fig7Point, error) {
	c, err := manager.Deploy(manager.Rack("tor0", 8, manager.QuadCore), manager.DeployConfig{Seed: 1234})
	if err != nil {
		return Fig7Point{}, err
	}
	server := c.Servers[0]
	apps.NewMemcachedServer(server, apps.MemcachedConfig{Threads: cfg.Threads, Pinned: cfg.Pinned})

	// Seven load generators split the offered load, as in the paper.
	gens := make([]*apps.Mutilate, 7)
	for i := 0; i < 7; i++ {
		gens[i] = apps.NewMutilate(c.Servers[i+1], apps.MutilateConfig{
			Server:      server.IP(),
			QPS:         qps / 7,
			Connections: 3,
			Duration:    window,
			Seed:        uint64(1000 + i),
		})
	}
	if err := c.RunFor(window + 2_000_000); err != nil {
		return Fig7Point{}, err
	}

	var all stats.Sample
	var received uint64
	for _, g := range gens {
		received += g.Received
		for p := 1.0; p <= 99; p++ {
			// Merge by re-sampling each generator's distribution at 1%
			// resolution (mutilate aggregates client-side the same way).
			all.Add(g.Latencies.Percentile(p))
		}
	}
	seconds := float64(window) / 3.2e9
	return Fig7Point{
		OfferedQPS:  qps,
		AchievedQPS: float64(received) / seconds,
		P50Us:       all.Median(),
		P95Us:       all.P95(),
	}, nil
}
