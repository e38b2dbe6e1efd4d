package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
)

// cmdTop is the observability showcase: it deploys a rack with every
// layer instrumented, drives ping traffic across it, and prints a
// top-style heartbeat per run slice — live proof that the
// metrics advance while the simulation runs. The final snapshot renders
// in the chosen format, so `firesim top -format prometheus` doubles as
// a scrape-format smoke test.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	nodes := fs.Int("nodes", 8, "servers on the rack")
	latencyUs := fs.Float64("latency-us", 2, "link latency in microseconds")
	horizonUs := fs.Float64("horizon-us", 2000, "how far to simulate, target microseconds")
	slices := fs.Int("slices", 10, "heartbeat refreshes across the run")
	format := fs.String("format", "table", "final snapshot format: table, json, or prometheus")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "table", "json", "prometheus":
	default:
		return fmt.Errorf("unknown -format %q (want table, json, or prometheus)", *format)
	}

	var prof obs.Profiles
	if err := prof.Start(*cpuprofile, *tracefile); err != nil {
		return err
	}
	defer prof.Stop()

	clk := clock.New(clock.DefaultTargetClock)
	c, err := core.Deploy(core.Rack("tor0", *nodes, core.QuadCore), core.DeployConfig{
		LinkLatency: clk.CyclesInMicros(*latencyUs),
	})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry("firesim")
	c.EnableMetrics(reg)

	// Ring of pings so every link carries traffic for the whole run.
	horizon := clk.CyclesInMicros(*horizonUs)
	interval := 8 * c.LinkLatency
	count := int(horizon/interval) + 1
	for i, src := range c.Servers {
		dst := c.Servers[(i+1)%len(c.Servers)]
		src.Ping(0, dst.IP(), count, interval, nil)
	}

	fmt.Printf("firesim top: %d nodes, link %.3g us, horizon %.0f us\n\n", *nodes, *latencyUs, *horizonUs)
	fmt.Printf("%12s %12s %14s %14s\n", "cycle", "sim rate", "tokens", "flits")
	step := c.Runner.Step()
	var lastCycles, lastWall, lastTokens uint64
	for s := 1; s <= *slices; s++ {
		target := horizon * clock.Cycles(s) / clock.Cycles(*slices)
		target -= target % step
		if n := target - c.Runner.Cycle(); n > 0 {
			if err := c.Runner.Run(n); err != nil {
				return err
			}
		}
		snap := reg.Snapshot()
		cycles := snap.Counters["fame_cycles_total"]
		wall := snap.Counters["fame_run_wall_nanos_total"]
		tokens := snap.Counters["fame_tokens_total"]
		rate := clock.SimRate{
			TargetCycles: clock.Cycles(cycles - lastCycles),
			Wall:         time.Duration(wall - lastWall),
			TargetFreq:   clock.DefaultTargetClock,
		}
		flits := uint64(0)
		for name, v := range snap.Counters {
			if obs.BaseName(name) == "switch_flits_in_total" {
				flits += v
			}
		}
		fmt.Printf("%12d %12v %14d %14d\n",
			snap.Gauges["fame_cycle"], rate.EffectiveHz(), tokens-lastTokens, flits)
		lastCycles, lastWall, lastTokens = cycles, wall, tokens
	}

	fmt.Println()
	snap := reg.Snapshot()
	switch *format {
	case "table":
		fmt.Print(snap.Table().String())
	case "json":
		return snap.WriteJSON(os.Stdout)
	case "prometheus":
		return snap.WritePrometheus(os.Stdout)
	}
	return nil
}
