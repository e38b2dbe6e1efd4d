package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/manager"
	"repro/internal/stats"
)

func init() {
	register("fig6", func(sc Scale) (Result, error) { return Fig6(sc) })
}

// Fig6Series is the bandwidth-over-time measurement at the root switch
// for one sender rate limit.
type Fig6Series struct {
	// RateGbps is the per-sender NIC rate limit.
	RateGbps float64
	// TimesUs and Gbps are the time series sampled at the root switch.
	TimesUs []float64
	Gbps    []float64
	// PlateauGbps is the steady-state aggregate bandwidth.
	PlateauGbps float64
}

// Fig6Result holds all four series.
type Fig6Result struct {
	Series []Fig6Series
}

// Title implements Result.
func (Fig6Result) Title() string {
	return "Figure 6: Multi-node bandwidth test (root-switch aggregate)"
}

// Render implements Result.
func (r Fig6Result) Render() string {
	var b strings.Builder
	t := stats.NewTable("Sender rate (Gbit/s)", "Aggregate plateau (Gbit/s)", "Paper plateau")
	paper := map[float64]string{1: "8", 10: "80", 40: "200 (saturated)", 100: "200 (saturated)"}
	for _, s := range r.Series {
		t.AddRow(s.RateGbps, s.PlateauGbps, paper[s.RateGbps])
	}
	b.WriteString(t.String())
	b.WriteString("\nBandwidth over time (Gbit/s per 20us bucket):\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %3g Gbit/s senders: ", s.RateGbps)
		for i, g := range s.Gbps {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.0f", g)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig6 simulates a 16-node cluster with two ToR switches and one root
// switch. Each server on the first ToR streams to the corresponding
// server on the second ToR through the root. Senders enter one fixed
// interval apart so traffic ramps at the root, exactly as in the paper;
// in the 40 and 100 Gbit/s runs the root link saturates at 200 Gbit/s.
func Fig6(sc Scale) (Fig6Result, error) {
	rates := []float64{1, 10, 40, 100}
	if sc.Quick {
		rates = []float64{10, 100}
	}
	clk := clock.New(clock.DefaultTargetClock)
	stagger := clk.CyclesInMicros(100)
	tail := clk.CyclesInMicros(400)
	bucket := clk.CyclesInMicros(20)

	var out Fig6Result
	for _, rate := range rates {
		topo := manager.NodeSpec{Switch: "root", Downlinks: []manager.NodeSpec{
			manager.Rack("tor0", 8, manager.QuadCore), manager.Rack("tor1", 8, manager.QuadCore)}}
		c, err := manager.Deploy(topo, manager.DeployConfig{})
		if err != nil {
			return Fig6Result{}, err
		}
		root := c.Switches[0]

		ts := stats.NewTimeSeries(int64(bucket))
		root.SetProbe(func(cycle clock.Cycles, port int) {
			// Count only flits leaving toward the receiving rack (port 1)
			// to avoid double-counting both root crossings.
			if port == 1 {
				ts.Accumulate(int64(cycle), 64) // bits per flit
			}
		})

		for i := 0; i < 8; i++ {
			sender := c.Servers[i] // tor0 servers are assigned first
			receiver := c.Servers[8+i]
			sender.StartRawStream(clock.Cycles(i+1)*stagger, receiver.MAC(), 1504, rate, 0)
		}
		total := 9*stagger + tail
		if err := c.RunFor(total); err != nil {
			return Fig6Result{}, err
		}

		times, bits := ts.Points()
		series := Fig6Series{RateGbps: rate}
		for i := range times {
			us := float64(times[i]) / 3200
			gbps := bits[i] / (float64(bucket) / 3.2e9) / 1e9
			series.TimesUs = append(series.TimesUs, us)
			series.Gbps = append(series.Gbps, gbps)
		}
		// Plateau: the maximum over full buckets after all senders are in.
		cut := float64(8*stagger) / 3200
		for i, us := range series.TimesUs {
			if us >= cut && series.Gbps[i] > series.PlateauGbps {
				series.PlateauGbps = series.Gbps[i]
			}
		}
		out.Series = append(out.Series, series)
	}
	return out, nil
}
