package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/clock"
	"repro/internal/manager"
)

// cmdTop deploys a rack, drives ping traffic across it, and prints a
// top-style heartbeat per run slice. Between slices it reads the plain
// target counters: the runner's cycle, every switch's FlitsIn and every
// node's FramesSent, with the sim rate taken from a wall clock around
// each slice.
func cmdTop(args []string) (err error) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	nodes := fs.Int("nodes", 8, "servers on the rack")
	latencyUs := fs.Float64("latency-us", 2, "link latency in microseconds")
	horizonUs := fs.Float64("horizon-us", 2000, "how far to simulate, target microseconds")
	slices := fs.Int("slices", 10, "heartbeat refreshes across the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// closeAfter closes f once stop has flushed into it, reporting the
	// close error when the run itself succeeded.
	closeAfter := func(f *os.File, stop func()) {
		stop()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer closeAfter(f, pprof.StopCPUProfile)
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		defer closeAfter(f, trace.Stop)
	}

	clk := clock.New(clock.DefaultTargetClock)
	c, err := manager.Deploy(manager.Rack("tor0", *nodes, manager.QuadCore), manager.DeployConfig{
		LinkLatency: clk.CyclesInMicros(*latencyUs),
	})
	if err != nil {
		return err
	}

	// Ring of pings so every link carries traffic for the whole run.
	horizon := clk.CyclesInMicros(*horizonUs)
	interval := 8 * c.LinkLatency
	count := int(horizon/interval) + 1
	for i, src := range c.Servers {
		dst := c.Servers[(i+1)%len(c.Servers)]
		src.Ping(0, dst.IP(), count, interval, nil)
	}

	fmt.Printf("firesim top: %d nodes, link %.3g us, horizon %.0f us\n\n", *nodes, *latencyUs, *horizonUs)
	fmt.Printf("%12s %12s %14s %14s\n", "cycle", "sim rate", "flits", "frames")
	step := c.Runner.Step()
	for s := 1; s <= *slices; s++ {
		target := horizon * clock.Cycles(s) / clock.Cycles(*slices)
		target -= target % step
		var rate clock.SimRate
		if n := target - c.Runner.Cycle(); n > 0 {
			start := time.Now()
			if err := c.Runner.Run(n); err != nil {
				return err
			}
			rate.TargetCycles, rate.Wall = n, time.Since(start)
		}
		var flits, frames uint64
		for _, sw := range c.Switches {
			flits += sw.Stats().FlitsIn
		}
		for _, n := range c.Servers {
			frames += n.Stats().FramesSent
		}
		fmt.Printf("%12d %12v %14d %14d\n", c.Runner.Cycle(), rate.EffectiveHz(), flits, frames)
	}
	return nil
}
