package main

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// pinned horizons below are sized for. -seconds scales every horizon
// linearly from here.
const runSeconds = 6

// workload is one named entry of the benchmark. The names and the why
// sentences are the contract: BENCHMARK.json repeats them and later
// changes claim against them.
type workload struct {
	name string
	why  string

	// hz pins the horizon in target cycles: the cycles this workload
	// simulated per host second at the commit that defined the benchmark.
	// Region lengths derive from hz x seconds, never from a clock, so every
	// commit simulates exactly the same target cycles.
	hz float64

	// build deploys an in-process workload; oracle selects the reference
	// settings (sequential scheduler, every node fast path off).
	build func(seed uint64, oracle bool) (*rig, error)

	// dist marks a distributed workload: streamSpec at gbps, cut at the
	// root into 2 shard processes, checkpointed every ckptWindows token
	// windows (0 = once, at the horizon).
	dist        bool
	gbps        float64
	ckptWindows uint64
}

var workloads = []workload{
	{
		name:  "tree256-ping",
		why:   "Fig. 9 scale point: 256 cheap softstack nodes + 37 switches, working set past the host L2, where fame bookkeeping and the switch idle path have their largest share.",
		hz:    41e6,
		build: pingTree([]int{4, 8, 8}, 0),
	},
	{
		name:  "tree64-ping-w2",
		why:   "The only workload on the 2-worker pool scheduler (SPSC rings, partitioner): guards the round-loop merge and measures real parallelism on the 2-core host.",
		hz:    210e6,
		build: pingTree([]int{8, 8}, 2),
	},
	{
		name:  "rack8-stream",
		why:   "Every node streams 200 B frames at 100 Gbit/s: switchmodel busy datapath and softstack NIC dominate, scheduler is small; in-process twin of dist8-stream (dist_frac = ratio of the two rates).",
		hz:    9.3e6,
		build: streamRack(100),
	},
	{
		name:  "soc4-dense",
		why:   "4 SoC blades in an L1-resident ALU loop: riscv superblock dispatch does nearly all the work, so switch, scheduler and wire changes must not move it.",
		hz:    42e6,
		build: socRack(denseProgram),
	},
	{
		name:  "soc4-memwalk",
		why:   "Same rack, seeded pointer chase over 256 KiB (load, store, data-dependent branch per step): cache/DRAM models and short non-span-pure blocks, where superblock exits and the predecode tier matter.",
		hz:    32e6,
		build: socRack(memwalkProgram),
	},
	{
		name: "dist8-stream",
		why:  "rack8-stream cut at the root into 2 shard processes + coordinator over loopback TCP, one final checkpoint: transport codec, syscalls, RTT wait and manager coupling dominate.",
		hz:   1.35e6,
		dist: true,
		gbps: 100,
	},
	{
		name: "dist8-idle",
		why:  "Same wire, no workload: the per-window exchange floor (3-4 B frames, RTT-bound); a dense-traffic codec or batching gain that taxes idle windows shows here.",
		hz:   1.75e6,
		dist: true,
	},
	{
		name:        "dist8-ckpt",
		why:         "dist8-stream at 1 Gbit/s with a coordinated checkpoint every 32 windows: snapshot.Store fsync and the FSCP slice barrier dominate; checkpoint amortisation must show here only.",
		hz:          1.0e6,
		dist:        true,
		gbps:        1,
		ckptWindows: 32,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
