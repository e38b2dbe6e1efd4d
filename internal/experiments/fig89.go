package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/hostplatform"
	"repro/internal/manager"
	"repro/internal/stats"
)

func init() {
	register("fig8", func(sc Scale) (Result, error) { return Fig8(sc) })
	register("fig9", func(sc Scale) (Result, error) { return Fig9(sc) })
}

// Fig8Row is one scale point: simulation rate vs number of simulated
// nodes.
type Fig8Row struct {
	Nodes int
	// MeasuredMHz is this Go simulator's achieved rate (idle cluster,
	// tokens still exchanged — like the paper's boot-and-power-off
	// benchmark, where empty tokens move exactly as if there were
	// traffic).
	MeasuredMHz float64
	// ProjStandardMHz / ProjSupernodeMHz are the modeled EC2 F1 rates for
	// standard (1 node/FPGA) and supernode (4 nodes/FPGA) mappings.
	ProjStandardMHz  float64
	ProjSupernodeMHz float64
}

// Fig8Result is the scale sweep.
type Fig8Result struct {
	Rows []Fig8Row
}

// Title implements Result.
func (Fig8Result) Title() string { return "Figure 8: Simulation rate vs. # simulated target nodes" }

// Render implements Result.
func (r Fig8Result) Render() string {
	t := stats.NewTable("Nodes", "Measured (MHz)", "EC2 proj. standard (MHz)", "EC2 proj. supernode (MHz)")
	for _, row := range r.Rows {
		t.AddRow(row.Nodes, row.MeasuredMHz, row.ProjStandardMHz, row.ProjSupernodeMHz)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nPaper reference: rate falls with scale as token synchronisation spans more\n" +
		"hosts; the 1024-node supernode point runs at ~3.4 MHz (<1000x slowdown).\n")
	return b.String()
}

// fig8Topology builds an idle cluster of the given size using the same
// shapes as the paper (single ToR up to 32 nodes, ToR+root above).
func fig8Topology(nodes int) (manager.NodeSpec, error) {
	switch {
	case nodes <= 32:
		return manager.Rack("tor0", nodes, manager.QuadCore), nil
	case nodes <= 256:
		racks := (nodes + 31) / 32
		root := manager.NodeSpec{Switch: "root"}
		for i := 0; i < racks; i++ {
			root.Downlinks = append(root.Downlinks, manager.Rack(fmt.Sprintf("tor%d", i), nodes/racks, manager.QuadCore))
		}
		return root, nil
	default:
		return manager.Tree([]int{4, 8, nodes / 32}, manager.QuadCore)
	}
}

// Fig8 measures simulation rate across cluster sizes.
func Fig8(sc Scale) (Fig8Result, error) {
	sizes := []int{4, 8, 16, 32, 64, 128, 256, 1024}
	rounds := clock.Cycles(2000)
	if sc.Quick {
		sizes = []int{4, 16, 64}
		rounds = 400
	}
	rm := hostplatform.DefaultRateModel()

	var out Fig8Result
	for _, n := range sizes {
		topo, err := fig8Topology(n)
		if err != nil {
			return Fig8Result{}, err
		}
		c, err := manager.Deploy(topo, manager.DeployConfig{})
		if err != nil {
			return Fig8Result{}, err
		}
		r := rounds
		if n >= 256 {
			r = rounds / 4
		}
		rate, err := c.MeasureRate(c.LinkLatency * r)
		if err != nil {
			return Fig8Result{}, err
		}
		out.Rows = append(out.Rows, Fig8Row{
			Nodes:            n,
			MeasuredMHz:      float64(rate.EffectiveHz()) / 1e6,
			ProjStandardMHz:  float64(rm.Project(n, 6400, n > 8)) / 1e6,
			ProjSupernodeMHz: float64(rm.Project(n, 6400, n > 32)) / 1e6,
		})
	}
	return out, nil
}

// Fig9Row is one link-latency point: simulation rate vs the simulated
// network's link latency (= token batch size).
type Fig9Row struct {
	LinkLatencyUs float64
	MeasuredMHz   float64
	ProjEC2MHz    float64
	BatchTokens   int
}

// Fig9Result is the latency sweep.
type Fig9Result struct {
	Rows []Fig9Row
}

// Title implements Result.
func (Fig9Result) Title() string { return "Figure 9: Simulation rate vs. simulated link latency" }

// Render implements Result.
func (r Fig9Result) Render() string {
	t := stats.NewTable("Link latency (us)", "Batch (tokens)", "Measured (MHz)", "EC2 proj. (MHz)")
	for _, row := range r.Rows {
		t.AddRow(row.LinkLatencyUs, row.BatchTokens, row.MeasuredMHz, row.ProjEC2MHz)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nPaper reference: performance improves as the token batch size (= link\n" +
		"latency) grows, since per-batch transport costs amortise over more target cycles.\n")
	return b.String()
}

// Fig9 measures simulation rate for an 8-node cluster across link
// latencies.
func Fig9(sc Scale) (Fig9Result, error) {
	latenciesUs := []float64{0.2, 0.5, 1, 2, 5, 10}
	targetUs := 4000.0
	if sc.Quick {
		latenciesUs = []float64{0.5, 2, 10}
		targetUs = 800
	}
	clk := clock.New(clock.DefaultTargetClock)
	rm := hostplatform.DefaultRateModel()

	var out Fig9Result
	for _, latUs := range latenciesUs {
		lat := clk.CyclesInMicros(latUs)
		c, err := manager.Deploy(manager.Rack("tor0", 8, manager.QuadCore), manager.DeployConfig{LinkLatency: lat})
		if err != nil {
			return Fig9Result{}, err
		}
		cycles := clk.CyclesInMicros(targetUs)
		cycles -= cycles % lat
		rate, err := c.MeasureRate(cycles)
		if err != nil {
			return Fig9Result{}, err
		}
		out.Rows = append(out.Rows, Fig9Row{
			LinkLatencyUs: latUs,
			BatchTokens:   int(lat),
			MeasuredMHz:   float64(rate.EffectiveHz()) / 1e6,
			ProjEC2MHz:    float64(rm.Project(8, lat, false)) / 1e6,
		})
	}
	return out, nil
}
