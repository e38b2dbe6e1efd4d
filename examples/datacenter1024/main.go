// datacenter1024 deploys the paper's Figure 10 target: 1,024 quad-core
// servers (4,096 cores, 16 TB of memory) under 32 ToR switches, 4
// aggregation switches, and one root switch, all on a 2 us / 200 Gbit/s
// network with supernode packing — then measures how fast this host
// simulates it and prints the Section V-C cost arithmetic.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/clock"
	"repro/internal/manager"
	"repro/internal/stats"
)

func main() {
	rounds := flag.Int("rounds", 400, "link-latency batches of target time to simulate")
	parallel := flag.Bool("parallel", false, "measure with the parallel worker-pool scheduler")
	workers := flag.Int("workers", 0, "parallel worker count (0 = GOMAXPROCS)")
	flag.Parse()

	topo, err := manager.Tree([]int{4, 8, 32}, manager.QuadCore)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := manager.Deploy(topo, manager.DeployConfig{Supernode: true, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}

	cores := 4 * len(cluster.Servers)
	memTB := 16 * len(cluster.Servers) / 1024
	fmt.Printf("deployed %d servers (%d cores, %d TB DRAM), %d switches\n\n",
		len(cluster.Servers), cores, memTB, len(cluster.Switches))

	t := stats.NewTable("Host platform", "Value", "Paper")
	t.AddRow("f1.16xlarge instances", cluster.Deployment.Count("f1.16xlarge"), 32)
	t.AddRow("m4.16xlarge instances", cluster.Deployment.Count("m4.16xlarge"), 5)
	t.AddRow("FPGAs harnessed", cluster.Deployment.FPGAs(), 256)
	t.AddRow("FPGA retail value", fmt.Sprintf("$%.1fM", cluster.Deployment.FPGAValueUSD()/1e6), "$12.8M")
	t.AddRow("Spot $/hour", fmt.Sprintf("$%.0f", cluster.Deployment.HourlyCost(true)), "~$100")
	t.AddRow("On-demand $/hour", fmt.Sprintf("$%.0f", cluster.Deployment.HourlyCost(false)), "~$440")
	fmt.Print(t.String())

	fmt.Printf("\nsimulating %d batches of target time...\n", *rounds)
	cycles := cluster.LinkLatency * clock.Cycles(*rounds)
	var rate clock.SimRate
	if *parallel {
		cycles -= cycles % cluster.Runner.Step()
		rate, err = cluster.Runner.Measure(cycles, clock.DefaultTargetClock, true)
	} else {
		rate, err = cluster.MeasureRate(cycles)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *parallel {
		fmt.Printf("parallel scheduler: %d effective workers\n", cluster.Runner.EffectiveWorkers())
	}
	fmt.Printf("simulation rate on this host: %v\n", rate)
	fmt.Printf("(the paper's EC2 F1 deployment ran this target at 3.42 MHz, <1000x slowdown)\n")
}
