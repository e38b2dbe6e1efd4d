// memcached-qos reproduces the Section IV-E experiment interactively: a
// 4-core memcached server under mutilate load from seven client nodes,
// with 4 threads, 5 threads (one more than cores), and 4 threads pinned
// one-to-a-core. The fifth thread must share a core, and its
// timeslice-scale stalls inflate tail latency while the median barely
// moves.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/manager"
	"repro/internal/stats"
)

func run(threads int, pinned bool, qps float64) (p50, p95 float64) {
	cluster, err := manager.Deploy(manager.Rack("tor0", 8, manager.QuadCore), manager.DeployConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	apps.NewMemcachedServer(cluster.Servers[0], apps.MemcachedConfig{Threads: threads, Pinned: pinned})

	window := clock.Cycles(160_000_000) // 50 ms of target time
	var gens []*apps.Mutilate
	for i := 1; i < 8; i++ {
		gens = append(gens, apps.NewMutilate(cluster.Servers[i], apps.MutilateConfig{
			Server:      cluster.Servers[0].IP(),
			QPS:         qps / 7,
			Connections: 3,
			Duration:    window,
			Seed:        uint64(i),
		}))
	}
	if err := cluster.RunFor(window + 3_200_000); err != nil {
		log.Fatal(err)
	}
	var all stats.Sample
	for _, g := range gens {
		for p := 1.0; p <= 99; p++ {
			all.Add(g.Latencies.Percentile(p))
		}
	}
	return all.Median(), all.P95()
}

func main() {
	const qps = 135_000 // near the ~150k QPS capacity of 4 cores
	t := stats.NewTable("Configuration", "p50 (us)", "p95 (us)")
	for _, cfg := range []struct {
		label   string
		threads int
		pinned  bool
	}{
		{"4 threads", 4, false},
		{"5 threads", 5, false},
		{"4 threads pinned", 4, true},
	} {
		p50, p95 := run(cfg.threads, cfg.pinned, qps)
		t.AddRow(cfg.label, p50, p95)
	}
	fmt.Printf("memcached QoS at %d offered QPS (8-node cluster, 200 Gbit/s / 2 us network):\n\n%s\n", qps, t.String())
	fmt.Println("Expected shape (paper Fig. 7): the 5-thread p95 is sharply inflated while")
	fmt.Println("its p50 moves far less; pinning smooths the 4-thread tail.")
}
