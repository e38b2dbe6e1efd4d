// Command firesim is the simulation manager CLI: it mirrors the paper's
// manager workflow — describe a topology, run the build flow, plan the
// EC2 deployment, and run workloads against the simulated cluster.
//
// Usage:
//
//	firesim topology -fanouts 4,8,32
//	firesim build    -fanouts 4,8,32 -supernode
//	firesim deploy   -fanouts 4,8,32 -supernode
//	firesim ping     -nodes 8 -latency-us 2 -count 10
//	firesim memcached -threads 5 -qps 135000
//	firesim figures  -exp fig5,fig9
//	firesim top      -nodes 8 -slices 10
//	firesim snap     verify -nodes 4 -cycles 65536 -extra 65536
//	firesim run-dist -nodes 8 -procs 3 -verify
//
// Simulator speed (target cycles per host second) is measured by the
// repository benchmark, `go run ./bench`, not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/manager"
	"repro/internal/softstack"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "topology":
		err = cmdTopology(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "deploy":
		err = cmdDeploy(os.Args[2:])
	case "ping":
		err = cmdPing(os.Args[2:])
	case "faults":
		err = cmdFaults(os.Args[2:])
	case "memcached":
		err = cmdMemcached(os.Args[2:])
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "figures":
		err = cmdFigures(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "snap":
		err = cmdSnap(os.Args[2:])
	case "run-dist":
		err = cmdRunDist(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "firesim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "firesim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `firesim — FPGA-accelerated-style cycle-exact datacenter simulation (Go reproduction)

commands:
  topology   describe and validate a tree topology
  build      run the (modeled) FPGA build flow for a topology
  deploy     plan the EC2 instance mapping and cost for a topology
  ping       boot a rack and measure ping RTT between two nodes
  faults     list fault scenarios or preview a deterministic fault schedule
  memcached  run a memcached+mutilate load test on a rack
  workload   run a reusable workload description on a deployed topology
  figures    regenerate the paper's tables and figures (-exp, -full, -list)
  top        run a pinging rack and print its counters slice by slice
  snap       checkpoint/restore a cluster (save, restore, inspect, verify)
  run-dist   coordinate a self-healing multi-process run (spawns shards)
  shard      run one shard worker process (spawned by run-dist)`)
}

func parseFanouts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad fanout %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdTopology(args []string) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	fanouts := fs.String("fanouts", "4,8,32", "comma-separated switch fanouts from root down; last level is servers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := parseFanouts(*fanouts)
	if err != nil {
		return err
	}
	topo, err := manager.Tree(f, manager.QuadCore)
	if err != nil {
		return err
	}
	if err := manager.Validate(topo); err != nil {
		return err
	}
	fmt.Printf("topology ok: %d servers, %d switches\n",
		manager.CountServers(topo), manager.CountSwitches(topo))
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	fanouts := fs.String("fanouts", "4,8,32", "switch fanouts")
	supernode := fs.Bool("supernode", false, "pack four blades per FPGA")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := parseFanouts(*fanouts)
	if err != nil {
		return err
	}
	topo, err := manager.Tree(f, manager.QuadCore)
	if err != nil {
		return err
	}
	farm := manager.NewBuildFarm()
	images, err := farm.BuildAll(topo, *supernode)
	if err != nil {
		return err
	}
	t := stats.NewTable("Blade", "AGFI", "Supernode")
	for _, img := range images {
		t.AddRow(string(img.Blade), img.AGFI, img.Supernode)
	}
	fmt.Print(t.String())
	return nil
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	fanouts := fs.String("fanouts", "4,8,32", "switch fanouts")
	supernode := fs.Bool("supernode", false, "pack four blades per FPGA")
	latencyUs := fs.Float64("latency-us", 2, "link latency in microseconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := parseFanouts(*fanouts)
	if err != nil {
		return err
	}
	topo, err := manager.Tree(f, manager.QuadCore)
	if err != nil {
		return err
	}
	clk := clock.New(clock.DefaultTargetClock)
	c, err := manager.Deploy(topo, manager.DeployConfig{
		Supernode:   *supernode,
		LinkLatency: clk.CyclesInMicros(*latencyUs),
	})
	if err != nil {
		return err
	}
	fmt.Printf("deployed %d servers, %d switches (link latency %.3g us)\n",
		len(c.Servers), len(c.Switches), *latencyUs)
	t := stats.NewTable("Quantity", "Value")
	t.AddRow("f1.16xlarge instances", c.Deployment.Count("f1.16xlarge"))
	t.AddRow("m4.16xlarge instances", c.Deployment.Count("m4.16xlarge"))
	t.AddRow("FPGAs", c.Deployment.FPGAs())
	t.AddRow("FPGA value", fmt.Sprintf("$%.2fM", c.Deployment.FPGAValueUSD()/1e6))
	t.AddRow("Spot $/hour", fmt.Sprintf("$%.2f", c.Deployment.HourlyCost(true)))
	t.AddRow("On-demand $/hour", fmt.Sprintf("$%.2f", c.Deployment.HourlyCost(false)))
	fmt.Print(t.String())
	fmt.Printf("\nsample address assignments:\n")
	for i, s := range c.Servers {
		if i >= 4 {
			fmt.Printf("  ... %d more\n", len(c.Servers)-4)
			break
		}
		fmt.Printf("  %-16s %v  %v\n", s.Name(), s.MAC(), s.IP())
	}
	return nil
}

func cmdPing(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	nodes := fs.Int("nodes", 8, "servers on the rack")
	latencyUs := fs.Float64("latency-us", 2, "link latency in microseconds")
	count := fs.Int("count", 10, "echo requests")
	scenario := fs.String("faults", "", "fault scenario to inject (see 'firesim faults')")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 2 {
		return fmt.Errorf("ping: -nodes must be at least 2 (got %d): one node cannot ping another", *nodes)
	}
	clk := clock.New(clock.DefaultTargetClock)
	c, err := manager.Deploy(manager.Rack("tor0", *nodes, manager.QuadCore), manager.DeployConfig{
		LinkLatency:      clk.CyclesInMicros(*latencyUs),
		DisableStaticARP: true,
		Seed:             *faultSeed,
		FaultScenario:    *scenario,
	})
	if err != nil {
		return err
	}
	src, dst := c.Servers[0], c.Servers[*nodes-1]
	var res []softstack.PingResult
	src.Ping(0, dst.IP(), *count, clk.CyclesInMicros(200), func(r []softstack.PingResult) { res = r })
	ok, err := c.RunUntil(func() bool { return res != nil }, clk.CyclesInMicros(float64(*count+5)*1000))
	if err != nil {
		return err
	}
	if !ok && c.Faults == nil {
		return fmt.Errorf("ping did not complete")
	}
	fmt.Printf("PING %v -> %v over a %g us / 200 Gbit/s network:\n", src.IP(), dst.IP(), *latencyUs)
	for _, pr := range res {
		note := ""
		if pr.Seq == 0 {
			note = "  (includes ARP)"
		}
		fmt.Printf("  seq=%d time=%.2f us%s\n", pr.Seq, clk.Micros(pr.RTT), note)
	}
	if !ok {
		fmt.Printf("  (ping did not complete under injected faults)\n")
	}
	if c.Faults != nil {
		fmt.Printf("\nfault injection (scenario %q, seed %d, schedule %#x):\n",
			*scenario, *faultSeed, c.Faults.Fingerprint())
		fmt.Print(c.Faults.Counters().Table().String())
	}
	return nil
}

func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	scenario := fs.String("scenario", "", "scenario to preview (empty lists the registry)")
	seed := fs.Uint64("seed", 1, "schedule seed")
	nodes := fs.Int("nodes", 8, "servers on the rack used for the preview")
	horizonUs := fs.Float64("horizon-us", 10000, "schedule horizon in target microseconds")
	show := fs.Int("show", 20, "events to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenario == "" {
		fmt.Println("available fault scenarios:")
		for _, n := range faults.Scenarios() {
			fmt.Printf("  %s\n", n)
		}
		return nil
	}
	clk := clock.New(clock.DefaultTargetClock)
	c, err := manager.Deploy(manager.Rack("tor0", *nodes, manager.QuadCore), manager.DeployConfig{
		Seed:          *seed,
		FaultScenario: *scenario,
		FaultHorizon:  clk.CyclesInMicros(*horizonUs),
	})
	if err != nil {
		return err
	}
	evs := c.Faults.Events()
	fmt.Printf("scenario %q, seed %d: %d events, schedule fingerprint %#x\n",
		*scenario, *seed, len(evs), c.Faults.Fingerprint())
	t := stats.NewTable("Kind", "Target", "Port", "Start", "End")
	for i, ev := range evs {
		if i >= *show {
			fmt.Printf("(showing first %d of %d events)\n", *show, len(evs))
			break
		}
		port := fmt.Sprint(ev.Port)
		if ev.Port < 0 {
			port = "all"
		}
		t.AddRow(ev.Kind.String(), ev.Target, port, ev.Start, ev.End)
	}
	fmt.Print(t.String())
	return nil
}

func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	name := fs.String("name", "", "workload name (empty lists the registry)")
	fanouts := fs.String("fanouts", "1,4", "switch fanouts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		fmt.Println("available workloads:")
		for _, n := range manager.Workloads() {
			fmt.Printf("  %s\n", n)
		}
		return nil
	}
	f, err := parseFanouts(*fanouts)
	if err != nil {
		return err
	}
	topo, err := manager.Tree(f, manager.QuadCore)
	if err != nil {
		return err
	}
	c, err := manager.Deploy(topo, manager.DeployConfig{})
	if err != nil {
		return err
	}
	report, err := manager.RunWorkload(*name, c)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func cmdMemcached(args []string) error {
	fs := flag.NewFlagSet("memcached", flag.ExitOnError)
	threads := fs.Int("threads", 4, "memcached worker threads")
	pinned := fs.Bool("pinned", false, "pin workers one-to-a-core")
	qps := fs.Float64("qps", 100000, "offered load")
	ms := fs.Int("ms", 50, "measurement window, target milliseconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := manager.Deploy(manager.Rack("tor0", 8, manager.QuadCore), manager.DeployConfig{Seed: 42})
	if err != nil {
		return err
	}
	apps.NewMemcachedServer(c.Servers[0], apps.MemcachedConfig{Threads: *threads, Pinned: *pinned})
	window := clock.Cycles(*ms) * 3_200_000
	var gens []*apps.Mutilate
	for i := 1; i < 8; i++ {
		gens = append(gens, apps.NewMutilate(c.Servers[i], apps.MutilateConfig{
			Server: c.Servers[0].IP(), QPS: *qps / 7, Connections: 3,
			Duration: window, Seed: uint64(i),
		}))
	}
	if err := c.RunFor(window + 3_200_000); err != nil {
		return err
	}
	var all stats.Sample
	var recv uint64
	for _, g := range gens {
		recv += g.Received
		for p := 1.0; p <= 99; p++ {
			all.Add(g.Latencies.Percentile(p))
		}
	}
	fmt.Printf("memcached %d threads (pinned=%v), offered %.0f QPS for %d ms:\n", *threads, *pinned, *qps, *ms)
	fmt.Printf("  achieved %.0f QPS, p50 %.1f us, p95 %.1f us\n",
		float64(recv)/(float64(window)/3.2e9), all.Median(), all.P95())
	return nil
}
