package experiments

import (
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/pfa"
	"repro/internal/softstack"
	"repro/internal/stats"
	"repro/internal/switchmodel"
)

func init() {
	register("fig11", func(sc Scale) (Result, error) { return Fig11(sc) })
}

// Fig11Point is one (workload, local-memory fraction) cell.
type Fig11Point struct {
	Workload      string
	LocalFraction float64
	// SWRuntimeUs / PFARuntimeUs are the measured application runtimes.
	SWRuntimeUs, PFARuntimeUs float64
	// Speedup is software/PFA runtime.
	Speedup float64
	// EvictionsEqual asserts the mode-independent replacement invariant.
	EvictionsEqual bool
	// MetaRatio is software/PFA metadata-management time.
	MetaRatio float64
}

// Fig11Result is the full sweep.
type Fig11Result struct {
	Points []Fig11Point
}

// Title implements Result.
func (Fig11Result) Title() string { return "Figure 11: Hardware-accelerated vs. software paging" }

// Render implements Result.
func (r Fig11Result) Render() string {
	t := stats.NewTable("Workload", "Local mem", "SW (us)", "PFA (us)", "Speedup", "Meta ratio", "Evictions equal")
	for _, p := range r.Points {
		t.AddRow(p.Workload, fmt.Sprintf("%.0f%%", p.LocalFraction*100),
			p.SWRuntimeUs, p.PFARuntimeUs, p.Speedup, p.MetaRatio, p.EvictionsEqual)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nPaper reference: PFA reduces paging overhead by up to 1.4x (Genome, low local\n" +
		"memory); evicted-page counts match across modes; metadata management time drops ~2.5x.\n")
	return b.String()
}

// Fig11 sweeps local-memory fractions for the Genome and Qsort workloads
// under software paging and the PFA, with the memory blade at the far end
// of a 2 us link.
func Fig11(sc Scale) (Fig11Result, error) {
	pages := uint64(4096) // 16 MiB at 4 KiB pages
	accesses := 60000
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	if sc.Quick {
		pages = 1024
		accesses = 8000
		fractions = []float64{0.5, 1.0}
	}

	workloads := []struct {
		name string
		mk   func() pfa.AccessPattern
	}{
		{"Genome", func() pfa.AccessPattern { return pfa.NewGenomePattern(pages, accesses, 42) }},
		{"Qsort", func() pfa.AccessPattern { return pfa.NewQsortPattern(pages, 2) }},
	}

	var out Fig11Result
	for _, wl := range workloads {
		for _, frac := range fractions {
			local := int(float64(pages) * frac)
			sw, err := fig11Run(pfa.SoftwarePaging, local, wl.mk(), pfa.PagingCosts{})
			if err != nil {
				return Fig11Result{}, fmt.Errorf("fig11 %s sw: %w", wl.name, err)
			}
			hw, err := fig11Run(pfa.PFAMode, local, wl.mk(), pfa.PagingCosts{})
			if err != nil {
				return Fig11Result{}, fmt.Errorf("fig11 %s pfa: %w", wl.name, err)
			}
			p := Fig11Point{
				Workload:       wl.name,
				LocalFraction:  frac,
				SWRuntimeUs:    float64(sw.Runtime) / 3200,
				PFARuntimeUs:   float64(hw.Runtime) / 3200,
				Speedup:        float64(sw.Runtime) / float64(hw.Runtime),
				EvictionsEqual: sw.Evictions == hw.Evictions,
			}
			if hw.MetadataTime > 0 {
				p.MetaRatio = float64(sw.MetadataTime) / float64(hw.MetadataTime)
			}
			out.Points = append(out.Points, p)
		}
	}
	return out, nil
}

// fig11Run runs one application blade against a memory blade under the
// given paging mode; zero costs take pfa's defaults.
func fig11Run(mode pfa.Mode, localPages int, pattern pfa.AccessPattern, costs pfa.PagingCosts) (pfa.Result, error) {
	appNode := softstack.NewNode(softstack.Config{Name: "app", MAC: 0x1, IP: 0x0a000001, Seed: 1})
	bladeNode := softstack.NewNode(softstack.Config{Name: "blade", MAC: 0x2, IP: 0x0a000002, Seed: 2})
	pfa.NewBlade(bladeNode)

	sw := switchmodel.New(switchmodel.Config{Name: "tor", Ports: 2})
	sw.MACTable().Set(0x1, 0)
	sw.MACTable().Set(0x2, 1)
	r := fame.NewRunner()
	r.Add(appNode)
	r.Add(bladeNode)
	r.Add(sw)
	const linkLat = 6400 // 2 us
	if err := r.Connect(appNode, 0, sw, 0, linkLat); err != nil {
		return pfa.Result{}, err
	}
	if err := r.Connect(bladeNode, 0, sw, 1, linkLat); err != nil {
		return pfa.Result{}, err
	}

	app := pfa.NewApp(appNode, pfa.AppConfig{
		Mode:             mode,
		Blade:            0x2,
		LocalPages:       localPages,
		Pattern:          pattern,
		ComputePerAccess: clock.Cycles(6400), // 2 us of compute per page touch
		Costs:            costs,
	}, 0)
	for !app.Done() && r.Cycle() < 200_000_000_000 {
		if err := r.Run(linkLat * 64); err != nil {
			return pfa.Result{}, err
		}
	}
	if !app.Done() {
		return pfa.Result{}, fmt.Errorf("application did not complete")
	}
	return app.Result(), nil
}
