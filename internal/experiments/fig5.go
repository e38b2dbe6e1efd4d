package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/manager"
	"repro/internal/softstack"
	"repro/internal/stats"
)

func init() {
	register("fig5", func(sc Scale) (Result, error) { return Fig5(sc) })
}

// Fig5Row is one point of Figure 5: ping latency vs configured link
// latency.
type Fig5Row struct {
	// LinkLatencyUs is the configured one-way link latency.
	LinkLatencyUs float64
	// IdealRTTUs is link latency times four plus two 10-cycle switch
	// crossings — the paper's "Ideal" line.
	IdealRTTUs float64
	// MeasuredRTTUs is the mean RTT reported by the simulated ping.
	MeasuredRTTUs float64
}

// Overhead returns measured minus ideal — the paper observes ~34 us of
// Linux networking stack and server latency.
func (r Fig5Row) Overhead() float64 { return r.MeasuredRTTUs - r.IdealRTTUs }

// Fig5Result is the full sweep.
type Fig5Result struct {
	Rows []Fig5Row
}

// Title implements Result.
func (Fig5Result) Title() string { return "Figure 5: Ping latency vs. configured link latency" }

// Render implements Result.
func (r Fig5Result) Render() string {
	t := stats.NewTable("Link latency (us)", "Ideal RTT (us)", "Measured RTT (us)", "Overhead (us)")
	for _, row := range r.Rows {
		t.AddRow(row.LinkLatencyUs, row.IdealRTTUs, row.MeasuredRTTUs, row.Overhead())
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nPaper reference: measured parallels ideal with a fixed ~34 us offset.\n")
	return b.String()
}

// Fig5 boots an 8-node single-ToR cluster, collects ping samples between
// two nodes at each configured link latency, ignores the first sample
// (ARP, as the paper does), and reports the average RTT.
func Fig5(sc Scale) (Fig5Result, error) {
	latenciesUs := []float64{1, 2, 5, 10, 20, 50}
	pings := 100
	if sc.Quick {
		latenciesUs = []float64{2, 10}
		pings = 10
	}
	clk := clock.New(clock.DefaultTargetClock)

	var out Fig5Result
	for _, latUs := range latenciesUs {
		lat := clk.CyclesInMicros(latUs)
		c, err := manager.Deploy(manager.Rack("tor0", 8, manager.QuadCore), manager.DeployConfig{
			LinkLatency:      lat,
			DisableStaticARP: true, // reproduce the ARP-on-first-sample artifact
		})
		if err != nil {
			return Fig5Result{}, err
		}
		src := c.Servers[0]
		dst := c.Servers[5]
		var res []softstack.PingResult
		interval := clk.CyclesInMicros(latUs*4 + 100)
		src.Ping(0, dst.IP(), pings+1, interval, func(r []softstack.PingResult) { res = r })
		deadline := clock.Cycles(pings+4) * (interval + 8*lat)
		ok, err := c.RunUntil(func() bool { return res != nil }, deadline)
		if err != nil {
			return Fig5Result{}, err
		}
		if !ok {
			return Fig5Result{}, fmt.Errorf("fig5: ping at %g us did not complete", latUs)
		}
		var sample stats.Sample
		for _, pr := range res[1:] { // ignore the first (ARP) sample
			sample.Add(clk.Micros(pr.RTT))
		}
		out.Rows = append(out.Rows, Fig5Row{
			LinkLatencyUs: latUs,
			IdealRTTUs:    latUs*4 + clk.Micros(2*10),
			MeasuredRTTUs: sample.Mean(),
		})
	}
	return out, nil
}
