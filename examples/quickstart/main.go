// Quickstart: boot a simulated 8-node rack behind a top-of-rack switch on
// a 200 Gbit/s, 2 us network, then use it like a real cluster — ping
// between nodes and stream with iperf — while every packet moves through
// the cycle-exact token network.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/manager"
	"repro/internal/softstack"
)

func main() {
	clk := clock.New(clock.DefaultTargetClock)

	// 1. Describe the target: one ToR switch, eight quad-core blades.
	topo := manager.Rack("tor0", 8, manager.QuadCore)

	// 2. Deploy: the manager builds images, assigns MACs/IPs, populates
	//    the switch's MAC table, and plans the EC2 instance mapping.
	cluster, err := manager.Deploy(topo, manager.DeployConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %d nodes; host plan: %d x f1.16xlarge ($%.2f/h spot)\n\n",
		len(cluster.Servers),
		cluster.Deployment.Count("f1.16xlarge"),
		cluster.Deployment.HourlyCost(true))

	// 3. Ping node 7 from node 0.
	src, dst := cluster.Servers[0], cluster.Servers[7]
	var pings []softstack.PingResult
	src.Ping(0, dst.IP(), 5, clk.CyclesInMicros(100), func(r []softstack.PingResult) { pings = r })
	if ok, err := cluster.RunUntil(func() bool { return pings != nil }, clk.CyclesInMicros(5000)); err != nil || !ok {
		log.Fatalf("ping failed: %v", err)
	}
	fmt.Printf("ping %v -> %v:\n", src.IP(), dst.IP())
	for _, p := range pings {
		fmt.Printf("  seq=%d time=%.2f us\n", p.Seq, clk.Micros(p.RTT))
	}

	// 4. iperf between nodes 1 and 2: the modeled Linux stack, not the
	//    200 Gbit/s link, is the bottleneck — exactly the paper's result.
	server := apps.NewIperfServer(cluster.Servers[2])
	dur := clk.CyclesInMicros(5000)
	apps.NewIperfClient(cluster.Servers[1], cluster.Servers[2].IP(), cluster.Runner.Cycle(), dur)
	if err := cluster.RunFor(dur + clk.CyclesInMicros(500)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\niperf %v -> %v: %.2f Gbit/s (paper: 1.4 Gbit/s)\n",
		cluster.Servers[1].IP(), cluster.Servers[2].IP(), server.GoodputGbps())

	// 5. Report how fast the simulation itself ran.
	rate, err := cluster.MeasureRate(cluster.LinkLatency * 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulation rate: %v\n", rate)
}
