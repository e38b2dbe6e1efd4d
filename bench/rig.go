package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/manager"
	"repro/internal/riscv"
	"repro/internal/snapshot"
	"repro/internal/soc"
	"repro/internal/switchmodel"
)

// layer names the part of the simulator a span of host time is charged
// to. The first four are endpoint kinds; fame is the scheduler's own
// time between ticks; hook is time spent inside the tracer's callbacks,
// which no layer owns and the report prints as unattributed.
type layer uint8

const (
	layerSoc layer = iota
	layerSoftstack
	layerSwitch
	layerTransport
	layerFame
	layerHook
	numLayers
)

var layerNames = [numLayers]string{"soc", "softstack", "switchmodel", "transport", "fame", "unattributed"}

// counters are the simulated (target-side) totals a workload exposes.
// They are exact: the same seed and horizon give the same values on every
// host and every scheduler, so they belong in the target digest.
type counters struct {
	FramesTx uint64
	FramesRx uint64
	Flits    uint64
	Drops    uint64
	Instret  uint64
}

// rig is one deployed in-process simulation plus what the harness needs
// to load it, check it and attribute its host time.
type rig struct {
	runner   *fame.Runner
	parallel bool
	// arm schedules the load for [start, start+cycles); nil when the load
	// drives itself (stream generators, machine code). advance calls it once
	// per chunk and keeps armedTo, the cycle the armed load ends at.
	arm      func(start, cycles clock.Cycles)
	chunk    clock.Cycles
	armedTo  clock.Cycles
	hashes   func() (map[string]uint64, error)
	counters func() counters
	// reference, when the rig was deployed from a ClusterSpec, is
	// manager.ReferenceHashes of that spec: a second, independent route to
	// the same state.
	reference func(horizon uint64) (map[string]uint64, error)
	// layers maps every endpoint name to the layer its ticks are charged to.
	layers map[string]layer
	// anchor names the endpoint whose tick cadence delimits windows when
	// the pool scheduler leaves no global window boundary to observe.
	anchor string
	// tier, on SoC racks, builds the same rack at another interpreter tier.
	tier func(socTier) (*rig, error)
}

// pingDrainWindows is how many idle windows end every armed ping train,
// so the last reply (6 hops of 2 us plus ~34 us of modeled kernel time on
// the 256-node tree, about 29 windows) lands before the chunk boundary
// and every node is checkpoint-quiescent there.
const pingDrainWindows = 48

// pingTree deploys a uniform tree of quad-core softstack nodes on the
// paper's 2 us links; armed regions run a ping ring (server i pings
// server i+1) with one echo every 4 windows per server. workers > 1
// selects the pool scheduler, which the oracle build never uses.
func pingTree(fanouts []int, workers int) func(seed uint64, oracle bool) (*rig, error) {
	return func(seed uint64, oracle bool) (*rig, error) {
		topo, err := core.Tree(fanouts, core.QuadCore)
		if err != nil {
			return nil, err
		}
		c, err := core.Deploy(topo, core.DeployConfig{Seed: seed, Workers: workers})
		if err != nil {
			return nil, err
		}
		step := c.Runner.Step()
		r := clusterRig(c)
		r.parallel = workers > 1 && !oracle
		r.anchor = c.Servers[0].Name()
		r.arm = func(start, cycles clock.Cycles) {
			interval := 4 * step
			count := int((cycles - pingDrainWindows*step) / interval)
			if count < 1 {
				return
			}
			for i, src := range c.Servers {
				dst := c.Servers[(i+1)%len(c.Servers)]
				src.Ping(start, dst.IP(), count, interval, nil)
			}
		}
		return r, nil
	}
}

// streamSpec is the 8-node rack every stream and distributed workload
// shares: single-core nodes straight off the root switch on 512-cycle
// links, each streaming 200 B frames to its ring neighbour at gbps
// (0 = no workload). StopAt 0 keeps the stream running past any horizon.
func streamSpec(seed uint64, gbps float64) (manager.ClusterSpec, error) {
	spec, err := manager.RackSpec(8, manager.DeployConfig{LinkLatency: 512, Seed: seed})
	if err != nil {
		return spec, err
	}
	if gbps > 0 {
		spec.Workload = &manager.WorkloadSpec{Kind: "stream", StartAt: 600, FrameBytes: 200, Gbps: gbps}
	}
	return spec, nil
}

// streamRack deploys streamSpec whole, in one process. The ring is wired
// exactly as WorkloadSpec.Apply wires it for partitions (Servers is in
// assignment order), which the verification pins by comparing against
// manager.ReferenceHashes of the same spec.
func streamRack(gbps float64) func(seed uint64, oracle bool) (*rig, error) {
	return func(seed uint64, oracle bool) (*rig, error) {
		spec, err := streamSpec(seed, gbps)
		if err != nil {
			return nil, err
		}
		root, cfg, err := spec.Topology()
		if err != nil {
			return nil, err
		}
		c, err := manager.Deploy(root, cfg)
		if err != nil {
			return nil, err
		}
		w := spec.Workload
		for i, n := range c.Servers {
			dst := c.Servers[(i+1)%len(c.Servers)].MAC()
			n.StartRawStream(clock.Cycles(w.StartAt), dst, w.FrameBytes, w.Gbps, clock.Cycles(w.StopAt))
		}
		r := clusterRig(c)
		r.reference = func(horizon uint64) (map[string]uint64, error) {
			return manager.ReferenceHashes(spec, horizon)
		}
		return r, nil
	}
}

// clusterRig wraps a manager-deployed cluster.
func clusterRig(c *manager.Cluster) *rig {
	r := &rig{runner: c.Runner, hashes: c.ComponentHashes, layers: make(map[string]layer)}
	for _, n := range c.Servers {
		r.layers[n.Name()] = layerSoftstack
	}
	for _, sw := range c.Switches {
		r.layers[sw.Name()] = layerSwitch
	}
	r.counters = func() counters {
		var k counters
		for _, n := range c.Servers {
			st := n.Stats()
			k.FramesTx += st.FramesSent
			k.FramesRx += st.FramesRecv
		}
		for _, sw := range c.Switches {
			k.add(sw.Stats())
		}
		return k
	}
	return r
}

func (k *counters) add(st switchmodel.Stats) {
	k.Flits += st.FlitsIn
	k.Drops += st.DropsBufFull + st.DropsStale + st.DropsUnroutable
}

// socTier selects how much of the node fast path a SoC rack runs with.
type socTier int

const (
	tierPerCycle   socTier = iota // every fast path off: the oracle
	tierPredecode                 // decode cache, fetch memo, quiescent skip
	tierSuperblock                // everything on: the product
)

// socLinkLatency is the paper's 2 us link; with one link per blade it is
// also the rack's window.
const socLinkLatency = 6400

// socRack hand-builds 4 single-hart blades behind an idle ToR, each
// running the machine code program(seed) returns.
func socRack(program func(seed uint64) ([]byte, error)) func(seed uint64, oracle bool) (*rig, error) {
	return func(seed uint64, oracle bool) (*rig, error) {
		tier := tierSuperblock
		if oracle {
			tier = tierPerCycle
		}
		return buildSocRack(program, seed, tier)
	}
}

func buildSocRack(program func(seed uint64) ([]byte, error), seed uint64, tier socTier) (*rig, error) {
	const blades = 4
	tor := switchmodel.New(switchmodel.Config{Name: "tor", Ports: blades})
	run := fame.NewRunner()
	r := &rig{runner: run, layers: map[string]layer{"tor": layerSwitch}}
	r.tier = func(t socTier) (*rig, error) { return buildSocRack(program, seed, t) }
	comps := map[string]snapshot.Snapshotter{"switch/tor": tor}
	var socs []*soc.SoC
	for i := 0; i < blades; i++ {
		bin, err := program(seed + uint64(i))
		if err != nil {
			return nil, err
		}
		s, err := soc.New(soc.Config{
			Name:  fmt.Sprintf("n%d", i),
			Cores: 1,
			MAC:   ethernet.MAC(0x0200_0000_0100 + uint64(i)),
		}, bin)
		if err != nil {
			return nil, err
		}
		s.SetQuiescentSkip(tier >= tierPredecode)
		s.SetFetchMemo(tier >= tierPredecode)
		s.SetDecodeCache(tier >= tierPredecode)
		s.SetSuperblocks(tier >= tierSuperblock)
		run.Add(s)
		socs = append(socs, s)
		comps["node/"+s.Name()] = s
		r.layers[s.Name()] = layerSoc
	}
	run.Add(tor)
	for i, s := range socs {
		if err := run.Connect(s, 0, tor, i, socLinkLatency); err != nil {
			return nil, err
		}
	}
	r.hashes = func() (map[string]uint64, error) {
		out := make(map[string]uint64, len(comps))
		for name, c := range comps {
			h, err := snapshotHash(uint64(run.Cycle()), name, c)
			if err != nil {
				return nil, err
			}
			out[name] = h
		}
		return out, nil
	}
	r.counters = func() counters {
		var k counters
		for _, s := range socs {
			k.Instret += s.InstretTotal()
		}
		k.add(tor.Stats())
		return k
	}
	return r, nil
}

// snapshotHash digests one component's serialized state, the way
// manager.ComponentHashes does for deployed clusters.
func snapshotHash(cycle uint64, section string, s snapshot.Snapshotter) (uint64, error) {
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{Cycle: cycle})
	if err != nil {
		return 0, err
	}
	w.Section(section)
	if err := s.Save(w); err != nil {
		return 0, fmt.Errorf("hash %s: %w", section, err)
	}
	if err := w.Close(); err != nil {
		return 0, fmt.Errorf("hash %s: %w", section, err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

// denseProgram is an L1-resident ALU loop: every cycle retires an
// instruction and nothing but the jump ends a block, so superblock
// dispatch does all the work. The seed is unused: the loop has no data.
func denseProgram(uint64) ([]byte, error) {
	a := riscv.NewAsm()
	a.LI(riscv.T0, 1)
	a.LI(riscv.T1, 3)
	a.Label("loop")
	for i := 0; i < 8; i++ {
		a.ADD(riscv.T2, riscv.T2, riscv.T0)
		a.XOR(riscv.T3, riscv.T3, riscv.T1)
	}
	a.J("loop")
	return a.Bytes()
}

const (
	// memwalkEntries 16-byte cells make a 256 KiB array: 16x the L1D and
	// the whole L2, so the chase misses L1 on nearly every step and spills
	// to DRAM.
	memwalkEntries = 16384
	// memwalkTableOff places the table one page past the code.
	memwalkTableOff = 4096
)

// memwalkProgram chases a seeded single-cycle permutation through an
// array of {next index, scratch} cells: per step one dependent load, one
// store into the cell just read, and a branch on the loaded value's low
// bit. Blocks are 3-6 instructions long and every one touches the bus,
// so none is span-pure.
func memwalkProgram(seed uint64) ([]byte, error) {
	a := riscv.NewAsm()
	a.LI64(riscv.S0, soc.DRAMBase+memwalkTableOff)
	a.LI(riscv.T0, 0)
	a.Label("loop")
	a.SLLI(riscv.T1, riscv.T0, 4)
	a.ADD(riscv.T1, riscv.T1, riscv.S0)
	a.LD(riscv.T0, riscv.T1, 0)
	a.ANDI(riscv.T3, riscv.T0, 1)
	a.BEQ(riscv.T3, riscv.Zero, "even")
	a.ADDI(riscv.T4, riscv.T4, 1)
	a.Label("even")
	a.SD(riscv.T4, riscv.T1, 8)
	a.J("loop")
	code, err := a.Bytes()
	if err != nil {
		return nil, err
	}
	if len(code) > memwalkTableOff {
		return nil, fmt.Errorf("memwalk: code is %d bytes, table starts at %d", len(code), memwalkTableOff)
	}
	img := make([]byte, memwalkTableOff+16*memwalkEntries)
	copy(img, code)
	for i, next := range sattolo(memwalkEntries, seed) {
		binary.LittleEndian.PutUint64(img[memwalkTableOff+16*i:], uint64(next))
	}
	return img, nil
}

// sattolo returns a uniformly random cyclic permutation of 0..n-1 (every
// element is visited before any repeats), drawn from a splitmix64 stream
// so the table depends on nothing but the seed.
func sattolo(n int, seed uint64) []int {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
