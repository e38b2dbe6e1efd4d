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
	register("fig10", func(sc Scale) (Result, error) { return Fig10(sc) })
	register("tableIII", func(sc Scale) (Result, error) { return TableIII(sc) })
}

// Fig10Result summarises the 1024-node datacenter deployment (Figure 10
// plus the Section V-C headline numbers).
type Fig10Result struct {
	Servers, ToRs, Aggs  int
	F116Instances        int
	M416Instances        int
	FPGAs                int
	FPGAValueUSD         float64
	SpotHourly, ODHourly float64
	SimRateMHz           float64
	Slowdown             float64
}

// Title implements Result.
func (Fig10Result) Title() string { return "Figure 10 / Section V-C: 1024-node datacenter simulation" }

// Render implements Result.
func (r Fig10Result) Render() string {
	t := stats.NewTable("Quantity", "Value", "Paper")
	t.AddRow("Simulated servers", r.Servers, 1024)
	t.AddRow("ToR switches", r.ToRs, 32)
	t.AddRow("Aggregation switches", r.Aggs, 4)
	t.AddRow("f1.16xlarge instances", r.F116Instances, 32)
	t.AddRow("m4.16xlarge instances", r.M416Instances, 5)
	t.AddRow("FPGAs", r.FPGAs, 256)
	t.AddRow("FPGA value", fmt.Sprintf("$%.1fM", r.FPGAValueUSD/1e6), "$12.8M")
	t.AddRow("Spot $/hour", fmt.Sprintf("$%.0f", r.SpotHourly), "~$100")
	t.AddRow("On-demand $/hour", fmt.Sprintf("$%.0f", r.ODHourly), "~$440")
	t.AddRow("Measured sim rate", fmt.Sprintf("%.2f MHz", r.SimRateMHz), "3.42 MHz (EC2)")
	t.AddRow("Slowdown vs 3.2 GHz", fmt.Sprintf("%.0fx", r.Slowdown), "<1000x")
	return t.String()
}

// Fig10 deploys the full 1024-node supernode datacenter and measures its
// simulation rate on this host.
func Fig10(sc Scale) (Fig10Result, error) {
	fanouts := []int{4, 8, 32}
	rounds := clock.Cycles(400)
	if sc.Quick {
		fanouts = []int{2, 4, 8} // 64 nodes, same shape
		rounds = 200
	}
	topo, err := manager.Tree(fanouts, manager.QuadCore)
	if err != nil {
		return Fig10Result{}, err
	}
	c, err := manager.Deploy(topo, manager.DeployConfig{Supernode: true})
	if err != nil {
		return Fig10Result{}, err
	}
	rate, err := c.MeasureRate(c.LinkLatency * rounds)
	if err != nil {
		return Fig10Result{}, err
	}
	tors := 0
	aggs := 0
	for _, sw := range c.Switches {
		name := sw.Name()
		switch {
		case strings.Count(name, ".") == 2 || strings.HasPrefix(name, "tor"):
			tors++
		case strings.Count(name, ".") == 1:
			aggs++
		}
	}
	return Fig10Result{
		Servers:       len(c.Servers),
		ToRs:          tors,
		Aggs:          aggs,
		F116Instances: c.Deployment.Count("f1.16xlarge"),
		M416Instances: c.Deployment.Count("m4.16xlarge"),
		FPGAs:         c.Deployment.FPGAs(),
		FPGAValueUSD:  c.Deployment.FPGAValueUSD(),
		SpotHourly:    c.Deployment.HourlyCost(true),
		ODHourly:      c.Deployment.HourlyCost(false),
		SimRateMHz:    float64(rate.EffectiveHz()) / 1e6,
		Slowdown:      rate.Slowdown(),
	}, nil
}

// TableIIIRow is one pairing configuration of the datacenter-scale
// memcached experiment.
type TableIIIRow struct {
	Config       string
	P50Us, P95Us float64
	AggregateQPS float64
}

// TableIIIResult is the full table.
type TableIIIResult struct {
	Servers int
	Rows    []TableIIIRow
}

// Title implements Result.
func (TableIIIResult) Title() string {
	return "Table III: datacenter-scale memcached latencies and QPS"
}

// Render implements Result.
func (r TableIIIResult) Render() string {
	t := stats.NewTable("Config", "50th pct (us)", "95th pct (us)", "Aggregate QPS")
	for _, row := range r.Rows {
		t.AddRow(row.Config, row.P50Us, row.P95Us, fmt.Sprintf("%.0f", row.AggregateQPS))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "(%d simulated servers)\n", r.Servers)
	b.WriteString(t.String())
	b.WriteString("\nPaper reference: p50 79.26 / 87.10 / 93.82 us (each hop tier adds ~8 us =\n" +
		"4 extra 2 us link crossings); p95 shows no predictable change; aggregate QPS\n" +
		"4.69M / 4.49M / 4.08M.\n")
	return b.String()
}

// TableIII runs memcached across the tree datacenter with three pairings:
// requests that stay intra-rack (crossing only the ToR), requests that
// cross an aggregation switch, and requests that cross the root.
func TableIII(sc Scale) (TableIIIResult, error) {
	fanouts := []int{4, 8, 32}
	window := clock.Cycles(96_000_000) // 30 ms
	perPairQPS := 9200.0
	if sc.Quick {
		fanouts = []int{2, 4, 8}
		window = 48_000_000
	}
	aggF, torF, srvF := fanouts[0], fanouts[1], fanouts[2]
	half := srvF / 2

	var out TableIIIResult
	for _, pairing := range []string{"Cross-ToR", "Cross-aggregation", "Cross-datacenter"} {
		topo, err := manager.Tree(fanouts, manager.QuadCore)
		if err != nil {
			return TableIIIResult{}, err
		}
		c, err := manager.Deploy(topo, manager.DeployConfig{Supernode: true, Seed: 7})
		if err != nil {
			return TableIIIResult{}, err
		}
		out.Servers = len(c.Servers)

		// Server assignment order is depth-first: servers of rack r (in
		// agg a) occupy indices ((a*torF)+r)*srvF ... +srvF-1. The first
		// half of each rack serves; the second half generates load.
		serverAt := func(agg, rack, k int) int { return ((agg*torF)+rack)*srvF + k }
		var gens []*apps.Mutilate
		for a := 0; a < aggF; a++ {
			for r := 0; r < torF; r++ {
				for k := 0; k < half; k++ {
					// The memcached instance lives at (a, r, k).
					apps.NewMemcachedServer(c.Servers[serverAt(a, r, k)],
						apps.MemcachedConfig{Threads: 4, Pinned: true})
				}
				for k := 0; k < half; k++ {
					// The load generator lives at (a, r, half+k); its
					// target depends on the pairing.
					var ta, tr int
					switch pairing {
					case "Cross-ToR":
						ta, tr = a, r // same rack: only the ToR is crossed
					case "Cross-aggregation":
						ta, tr = a, (r+1)%torF // different rack, same agg
					default:
						ta, tr = (a+1)%aggF, r // different agg: cross root
					}
					gen := c.Servers[serverAt(a, r, half+k)]
					target := c.Servers[serverAt(ta, tr, k)]
					gens = append(gens, apps.NewMutilate(gen, apps.MutilateConfig{
						Server:      target.IP(),
						QPS:         perPairQPS,
						Connections: 4,
						Duration:    window,
						Seed:        uint64(serverAt(a, r, k)),
					}))
				}
			}
		}
		if err := c.RunFor(window + 2_000_000); err != nil {
			return TableIIIResult{}, err
		}

		// Average the per-pair percentiles across all server-client
		// pairs, as the paper reports.
		var p50s, p95s stats.Sample
		var received uint64
		for _, g := range gens {
			if g.Latencies.N() == 0 {
				continue
			}
			p50s.Add(g.Latencies.Median())
			p95s.Add(g.Latencies.P95())
			received += g.Received
		}
		seconds := float64(window) / 3.2e9
		out.Rows = append(out.Rows, TableIIIRow{
			Config:       pairing,
			P50Us:        p50s.Mean(),
			P95Us:        p95s.Mean(),
			AggregateQPS: float64(received) / seconds,
		})
	}
	return out, nil
}
