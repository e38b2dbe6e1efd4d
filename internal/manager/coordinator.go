// The coordinator of a self-healing multi-process run. It owns the root
// switch partition and both wire planes (control + token), spawns and
// adopts shard worker processes, drives them through lockstep
// checkpointed slices, and — when a shard dies, hangs or its checkpoint
// tears — rewinds the whole cluster to the last coordinated generation
// and rebuilds the next epoch: respawning replacements while the budget
// lasts, then elastically re-packing lost units onto the survivors.
//
// Failure detection is layered, fastest-first:
//
//   - a bridge read error (peer socket died) surfaces the moment the
//     root partition finishes its slice;
//   - the liveness lease expires when a shard stops sending ANY control
//     frame for Lease (SIGKILL, SIGSTOP, machine gone) — heartbeats
//     flow every 25ms, so this fires in well under a second;
//   - the progress watchdog fires when frames still flow but target
//     time stops advancing for StallAfter: a shard that is alive but
//     wedged, the one failure mode a liveness lease cannot see.
//
// On any of them the epoch fails ONCE: the token plane is closed (which
// unblocks every blocked exchange on both sides within one syscall, not
// one timeout), survivors report structured errors and await the next
// assignment, and recovery restores from snapshot.CoordinatedCycle over
// all unit stores plus the root store. The root store is the integrity
// keystone: the coordinator only persists its own generation for a slice
// whose every token exchange succeeded, so a generation poisoned by a
// degraded stream can never become the coordinated restore point.
package manager

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/hostplatform"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// CoordinatorConfig configures RunDistributed.
type CoordinatorConfig struct {
	// Spec is the cluster to simulate (identical on every process).
	Spec ClusterSpec
	// Procs is the target number of shard worker processes (clamped to
	// the number of partition units, so every process hosts at least one).
	Procs int
	// BaseDir holds the checkpoint stores: BaseDir/units/sub<i> per
	// partition unit and BaseDir/root for the coordinator's partition.
	BaseDir string
	// CkptEvery is the coordinated checkpoint interval in target cycles
	// (a multiple of the link latency).
	CkptEvery uint64
	// Horizon is the target cycle to run to (a multiple of the link
	// latency).
	Horizon uint64
	// Retain bounds checkpoint generations kept per store (default 4).
	Retain int
	// MaxRecoveries bounds how many failures the run will heal before
	// giving up (default 3).
	MaxRecoveries int
	// RespawnBudget is how many replacement processes may be spawned
	// over the whole run; once exhausted, lost units are re-packed onto
	// the surviving processes instead.
	RespawnBudget int
	// Chaos schedules host-level failure injection (tests and the chaos
	// smoke); empty for production runs.
	Chaos []faults.ChaosEvent
	// Spawn builds the command for one shard worker process. The command
	// must exec something that calls RunShard against controlAddr with
	// the given name. Required.
	Spawn func(name, controlAddr string) *exec.Cmd
	// Log, when non-nil, receives coordinator lifecycle lines.
	Log func(format string, args ...any)

	// Lease is the liveness lease (default 1s): a shard silent on the
	// control plane this long is declared dead.
	Lease time.Duration
	// StallAfter is the progress watchdog deadline (default 2.5s):
	// control frames flowing but target time frozen cluster-wide this
	// long fails the epoch without naming a suspect.
	StallAfter time.Duration
	// SetupTimeout bounds the spawn/hello/assign/dial phases and each
	// slice's done-collection (default 60s).
	SetupTimeout time.Duration
}

// DistReport summarises a completed distributed run.
type DistReport struct {
	// Cycle is the horizon reached.
	Cycle uint64
	// Hashes maps every component ("node/x", "switch/x") to its state
	// hash at the horizon; Combined folds them order-independently.
	Hashes   map[string]uint64
	Combined uint64
	// Recoveries counts healed failures; Epochs counts assignments
	// (1 = an undisturbed run).
	Recoveries int
	Epochs     int
	// FinalProcs is the number of shard processes at completion.
	FinalProcs int
}

// chaosState tracks one scheduled chaos event; done flips exactly once
// when the event has been delivered (kill/stop/stall) or applied (tear).
type chaosState struct {
	ev   faults.ChaosEvent
	done atomic.Bool
}

// shardEvent is one control-plane event routed from a shard reader
// goroutine to the coordinator main loop.
type shardEvent struct {
	p     *shardProc
	typ   byte // msgReady, msgDone, msgError; 0 when lost is set
	ready ReadyMsg
	done  DoneMsg
	errm  ErrorMsg
	lost  error
}

// shardProc is the coordinator's view of one worker process.
type shardProc struct {
	name  string
	cmd   *exec.Cmd
	conn  net.Conn
	units []int

	lastFrame    atomic.Int64 // unix nanos of the last control frame
	lastCycle    atomic.Uint64
	lastProgress atomic.Int64 // unix nanos of the last cycle change
	stallArmed   *chaosState  // chaos stall delivered in the current assign
}

type helloConn struct {
	name string
	conn net.Conn
}

type tokenConn struct {
	unit  int
	epoch uint32
	conn  net.Conn
}

// epochRun is the state of one assignment epoch. fail may be called from
// the main loop, the watchdog and bridge-error attribution concurrently;
// the first call closes the token plane, which unblocks every in-flight
// exchange in the whole cluster.
type epochRun struct {
	epoch    uint32
	part     *Partition // root partition
	failed   chan struct{}
	failOnce sync.Once
	mu       sync.Mutex
	suspects map[string]string // proc name → reason (may stay empty)
	reason   string
	target   atomic.Uint64 // current slice target (progress watchdog gate)
	running  atomic.Bool   // true while a slice is in flight
}

func (e *epochRun) fail(name, reason string) {
	e.mu.Lock()
	if name != "" {
		if _, dup := e.suspects[name]; !dup {
			e.suspects[name] = reason
		}
	}
	if e.reason == "" {
		e.reason = reason
	}
	e.mu.Unlock()
	e.failOnce.Do(func() {
		close(e.failed)
		e.part.CloseBridges()
	})
}

func (e *epochRun) failedNow() bool {
	select {
	case <-e.failed:
		return true
	default:
		return false
	}
}

// coordinator is the supervisor state for one RunDistributed call.
type coordinator struct {
	cfg  CoordinatorConfig
	spec ClusterSpec

	controlLn net.Listener
	tokenLn   net.Listener

	helloCh chan helloConn
	tokenCh chan tokenConn
	evCh    chan shardEvent

	procs   map[string]*shardProc // adopted (hello received)
	pending map[string]*exec.Cmd  // spawned, hello not yet received

	weights    []int // servers per partition unit
	unitStores map[int]*snapshot.Store
	rootStore  *snapshot.Store

	epoch        atomic.Uint32
	chaos        []*chaosState
	respawnsLeft int
	recoveries   int
	restoreCycle uint64
	restore      bool

	rootCycle    atomic.Uint64
	rootProgress atomic.Int64
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log("[coordinator] "+format, args...)
	}
}

// RunDistributed executes a whole multi-process simulation: spawn,
// assign, run in checkpointed lockstep slices, heal failures, and return
// the horizon-state component hashes.
func RunDistributed(cfg CoordinatorConfig) (*DistReport, error) {
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("manager: distributed: Spawn is required")
	}
	root, dcfg, err := cfg.Spec.Topology()
	if err != nil {
		return nil, err
	}
	dcfg = normalizeConfig(dcfg)
	link := uint64(dcfg.LinkLatency)
	if link%2 != 0 {
		return nil, fmt.Errorf("manager: distributed: link latency %d must be even", link)
	}
	if cfg.CkptEvery == 0 || cfg.CkptEvery%link != 0 {
		return nil, fmt.Errorf("manager: distributed: CkptEvery %d must be a positive multiple of the link latency %d", cfg.CkptEvery, link)
	}
	if cfg.Horizon == 0 || cfg.Horizon%link != 0 {
		return nil, fmt.Errorf("manager: distributed: Horizon %d must be a positive multiple of the link latency %d", cfg.Horizon, link)
	}
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("manager: distributed: BaseDir is required")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = time.Second
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 2500 * time.Millisecond
	}
	if cfg.SetupTimeout <= 0 {
		cfg.SetupTimeout = 60 * time.Second
	}
	if cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 3
	}
	units := len(CutUnits(root, cfg.Spec.CutLevel))
	if units == 0 {
		return nil, fmt.Errorf("manager: distributed: topology root has no downlinks")
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Procs > units {
		cfg.Procs = units
	}

	c := &coordinator{
		cfg:          cfg,
		spec:         cfg.Spec,
		helloCh:      make(chan helloConn, 16),
		tokenCh:      make(chan tokenConn, 64),
		evCh:         make(chan shardEvent, 256),
		procs:        make(map[string]*shardProc),
		pending:      make(map[string]*exec.Cmd),
		respawnsLeft: cfg.RespawnBudget,
	}
	for _, ev := range cfg.Chaos {
		c.chaos = append(c.chaos, &chaosState{ev: ev})
	}
	c.weights = unitWeights(root, cfg.Spec.CutLevel)
	c.unitStores = make(map[int]*snapshot.Store, units)
	for i := 0; i < units; i++ {
		st, err := snapshot.NewStore(filepath.Join(cfg.BaseDir, "units", UnitName(i)), cfg.Retain)
		if err != nil {
			return nil, err
		}
		c.unitStores[i] = st
	}
	c.rootStore, err = snapshot.NewStore(filepath.Join(cfg.BaseDir, UnitName(RootUnit)), cfg.Retain)
	if err != nil {
		return nil, err
	}

	c.controlLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.tokenLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.controlLn.Close()
		return nil, err
	}
	defer c.shutdown()
	go c.acceptControl()
	go c.acceptTokens()

	// Initial fleet: shard0..shardN-1, units packed by server weight.
	for i := 0; i < cfg.Procs; i++ {
		if err := c.spawnProc(fmt.Sprintf("shard%d", i)); err != nil {
			return nil, err
		}
	}
	assignments := c.packOnto(c.fleetNames())

	for {
		report, failure := c.runEpoch(assignments)
		if failure == nil {
			report.Recoveries = c.recoveries
			report.Epochs = int(c.epoch.Load())
			report.FinalProcs = len(c.procs)
			return report, nil
		}
		c.logf("epoch %d failed at cycle ~%d: %s (suspects: %v)",
			failure.epoch, c.maxObservedCycle(), failure.reason, suspectNames(failure.suspects))
		if c.recoveries >= c.cfg.MaxRecoveries {
			return nil, fmt.Errorf("manager: distributed: giving up after %d recoveries: %s", c.recoveries, failure.reason)
		}
		c.recoveries++
		assignments, err = c.recover(failure)
		if err != nil {
			return nil, err
		}
	}
}

// unitWeights counts the servers under each partition unit at the given
// cut level — the packing weight of each unit.
func unitWeights(root *SwitchNode, cutLevel int) []int {
	cuts := CutUnits(root, cutLevel)
	w := make([]int, len(cuts))
	for i, d := range cuts {
		switch v := d.(type) {
		case *ServerNode:
			w[i] = 1
		case *SwitchNode:
			w[i] = CountServers(v)
		}
	}
	return w
}

func suspectNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (c *coordinator) maxObservedCycle() uint64 {
	max := c.rootCycle.Load()
	for _, p := range c.procs {
		if v := p.lastCycle.Load(); v > max {
			max = v
		}
	}
	return max
}

// fleetNames lists every adopted or spawned-but-not-yet-adopted process
// name, sorted — the deterministic order packing maps onto.
func (c *coordinator) fleetNames() []string {
	var names []string
	for n := range c.procs {
		names = append(names, n)
	}
	for n := range c.pending {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// packOnto distributes all partition units over the named processes.
func (c *coordinator) packOnto(names []string) map[string][]int {
	packs := hostplatform.PackUnits(c.weights, len(names))
	out := make(map[string][]int, len(names))
	for i, n := range names {
		out[n] = packs[i]
	}
	return out
}

// spawnProc starts one worker process; it is adopted when its Hello
// arrives on the control listener.
func (c *coordinator) spawnProc(name string) error {
	cmd := c.cfg.Spawn(name, c.controlLn.Addr().String())
	if cmd == nil {
		return fmt.Errorf("manager: distributed: Spawn(%q) returned nil", name)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("manager: distributed: spawn %s: %w", name, err)
	}
	go cmd.Wait() // reap; liveness is tracked by the lease, not by exit
	c.pending[name] = cmd
	c.logf("spawned %s (pid %d)", name, cmd.Process.Pid)
	return nil
}

// killProc removes a process from the fleet with prejudice. SIGKILL
// works on SIGSTOPped processes too, which is exactly the chaos case.
func (c *coordinator) killProc(name string) {
	if p, ok := c.procs[name]; ok {
		p.conn.Close()
		if p.cmd != nil && p.cmd.Process != nil {
			p.cmd.Process.Kill()
		}
		delete(c.procs, name)
	}
	if cmd, ok := c.pending[name]; ok {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		delete(c.pending, name)
	}
}

// acceptControl adopts shard control connections: the first frame must
// be a Hello naming a process we spawned.
func (c *coordinator) acceptControl() {
	for {
		conn, err := c.controlLn.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(15 * time.Second))
			typ, payload, err := ReadControl(conn)
			conn.SetReadDeadline(time.Time{})
			if err != nil || typ != msgHello {
				conn.Close()
				return
			}
			var m HelloMsg
			if decodeControl(typ, payload, &m) != nil || m.Proto != int(controlVersion) {
				conn.Close()
				return
			}
			select {
			case c.helloCh <- helloConn{name: m.Name, conn: conn}:
			default:
				conn.Close()
			}
		}(conn)
	}
}

// acceptTokens accepts token-plane connections, validates the preamble
// and drops anything from a superseded epoch on the floor.
func (c *coordinator) acceptTokens() {
	for {
		conn, err := c.tokenLn.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			unit, epoch, err := transport.ReadTokenPreamble(conn, 15*time.Second)
			if err != nil || epoch != c.epoch.Load() {
				conn.Close()
				return
			}
			select {
			case c.tokenCh <- tokenConn{unit: int(unit), epoch: epoch, conn: conn}:
			default:
				conn.Close()
			}
		}(conn)
	}
}

// readShard pumps one adopted shard's control frames: heartbeats update
// the lease and progress clocks in place; protocol events are routed to
// the main loop.
func (c *coordinator) readShard(p *shardProc) {
	for {
		typ, payload, err := ReadControl(p.conn)
		if err != nil {
			c.evCh <- shardEvent{p: p, lost: err}
			return
		}
		p.lastFrame.Store(time.Now().UnixNano())
		switch typ {
		case msgProgress:
			var m ProgressMsg
			if decodeControl(typ, payload, &m) == nil && m.Cycle != p.lastCycle.Load() {
				p.lastCycle.Store(m.Cycle)
				p.lastProgress.Store(time.Now().UnixNano())
			}
		case msgReady:
			ev := shardEvent{p: p, typ: typ}
			if decodeControl(typ, payload, &ev.ready) == nil {
				c.evCh <- ev
			}
		case msgDone:
			ev := shardEvent{p: p, typ: typ}
			if decodeControl(typ, payload, &ev.done) == nil {
				p.lastCycle.Store(ev.done.Cycle)
				p.lastProgress.Store(time.Now().UnixNano())
				c.evCh <- ev
			}
		case msgError:
			ev := shardEvent{p: p, typ: typ}
			if decodeControl(typ, payload, &ev.errm) == nil {
				c.evCh <- ev
			}
		}
	}
}

// adoptHellos waits until every named process has an adopted control
// connection, spawning the reader goroutine for each as it arrives.
func (c *coordinator) adoptHellos(names []string, deadline time.Time) error {
	for {
		missing := 0
		for _, n := range names {
			if _, ok := c.procs[n]; !ok {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		select {
		case h := <-c.helloCh:
			cmd, ok := c.pending[h.name]
			if !ok {
				h.conn.Close() // unknown or already-adopted name
				continue
			}
			delete(c.pending, h.name)
			p := &shardProc{name: h.name, cmd: cmd, conn: h.conn}
			p.lastFrame.Store(time.Now().UnixNano())
			p.lastProgress.Store(time.Now().UnixNano())
			c.procs[h.name] = p
			go c.readShard(p)
			c.logf("adopted %s", h.name)
		case <-time.After(time.Until(deadline)):
			var absent []string
			for _, n := range names {
				if _, ok := c.procs[n]; !ok {
					absent = append(absent, n)
				}
			}
			return fmt.Errorf("hello timeout waiting for %s", strings.Join(absent, ","))
		}
	}
}

// epochFailure describes why an epoch died, for recovery planning.
type epochFailure struct {
	epoch    uint32
	reason   string
	suspects map[string]string
}

// runEpoch drives one assignment epoch to the horizon or to failure.
func (c *coordinator) runEpoch(assignments map[string][]int) (*DistReport, *epochFailure) {
	epoch := c.epoch.Add(1)
	names := make([]string, 0, len(assignments))
	for n := range assignments {
		names = append(names, n)
	}
	sort.Strings(names)
	c.logf("epoch %d: assigning %d proc(s), restore=%v cycle=%d", epoch, len(names), c.restore, c.restoreCycle)

	failAll := func(reason string) *epochFailure {
		f := &epochFailure{epoch: epoch, reason: reason, suspects: map[string]string{}}
		for _, n := range names {
			if _, ok := c.procs[n]; !ok {
				f.suspects[n] = reason
			}
		}
		return f
	}

	deadline := time.Now().Add(c.cfg.SetupTimeout)
	if err := c.adoptHellos(names, deadline); err != nil {
		return nil, failAll(err.Error())
	}

	// Root partition: rebuilt from the spec every epoch, restored from
	// the root store when recovering. The bridge timeout mirrors the
	// shard side: supervision closes connections long before it fires.
	part, err := BuildPartition(c.spec, nil, shardBridgeTimeout)
	if err != nil {
		return nil, failAll("build root partition: " + err.Error())
	}
	e := &epochRun{epoch: epoch, part: part, failed: make(chan struct{}), suspects: map[string]string{}}
	defer part.CloseBridges()
	if c.restore {
		data, err := c.rootStore.Load(c.restoreCycle)
		if err != nil {
			return nil, failAll(fmt.Sprintf("load root checkpoint at %d: %v", c.restoreCycle, err))
		}
		got, err := part.RestoreUnit(data, RootUnit)
		if err != nil {
			return nil, failAll("restore root partition: " + err.Error())
		}
		if got != c.restoreCycle {
			return nil, failAll(fmt.Sprintf("root checkpoint cycle %d, recovery wants %d", got, c.restoreCycle))
		}
		if err := part.Runner.SetCycle(clock.Cycles(c.restoreCycle)); err != nil {
			return nil, failAll(err.Error())
		}
	} else if err := c.rootStore.Save(0, func(w io.Writer) error {
		return part.SaveUnit(w, RootUnit)
	}); err != nil {
		return nil, failAll("persist root baseline: " + err.Error())
	}
	c.rootCycle.Store(c.restoreCycle)
	c.rootProgress.Store(time.Now().UnixNano())

	// Assign every proc its units; arm a pending chaos stall on its
	// victim when the trigger cycle is still ahead of the restore point.
	procsList := make([]*shardProc, 0, len(names))
	for _, n := range names {
		p := c.procs[n]
		p.units = assignments[n]
		p.stallArmed = nil
		m := AssignMsg{
			Epoch:        epoch,
			Spec:         c.spec,
			TokenAddr:    c.tokenLn.Addr().String(),
			Restore:      c.restore,
			RestoreCycle: c.restoreCycle,
			Retain:       c.cfg.Retain,
		}
		for _, u := range p.units {
			m.Units = append(m.Units, UnitAssign{Unit: u, StoreDir: c.unitStores[u].Dir()})
		}
		for _, cs := range c.chaos {
			if cs.ev.Kind == faults.ChaosStall && cs.ev.Target == n && !cs.done.Load() && cs.ev.Cycle > c.restoreCycle {
				m.StallAt, m.StallMs = cs.ev.Cycle, cs.ev.StallMs
				p.stallArmed = cs
			}
		}
		if err := WriteControl(p.conn, msgAssign, m); err != nil {
			// The proc's control conn is dead: blame it, so recovery
			// kills it instead of re-packing onto the same conn.
			f := failAll(fmt.Sprintf("assign %s: %v", n, err))
			f.suspects[n] = f.reason
			return nil, f
		}
		procsList = append(procsList, p)
	}

	if f := c.awaitSetup(e, procsList, deadline); f != nil {
		return nil, f
	}

	// Supervision for the slice phase.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go c.watchdog(e, procsList, stopWatch)
	go c.chaosWatcher(procsList, stopWatch)

	return c.runSlices(e, procsList)
}

// awaitSetup collects epoch-tagged token connections (attaching each to
// the root partition) and Ready replies from every proc.
func (c *coordinator) awaitSetup(e *epochRun, procs []*shardProc, deadline time.Time) *epochFailure {
	needToken := make(map[int]bool)
	for u := range c.unitStores {
		needToken[u] = true
	}
	needReady := make(map[*shardProc]bool)
	for _, p := range procs {
		needReady[p] = true
	}
	// The liveness lease applies during setup too: a proc that was
	// stopped or wedged BETWEEN epochs sends no heartbeats and would
	// otherwise only be caught by the full ready timeout.
	lease := time.NewTicker(50 * time.Millisecond)
	defer lease.Stop()
	for len(needToken) > 0 || len(needReady) > 0 {
		select {
		case <-lease.C:
			now := time.Now().UnixNano()
			for _, p := range procs {
				if needReady[p] && now-p.lastFrame.Load() > int64(c.cfg.Lease) {
					e.fail(p.name, fmt.Sprintf("liveness lease expired during setup (silent for %v)", c.cfg.Lease))
					return c.collectFailure(e, "")
				}
			}
		case tc := <-c.tokenCh:
			if tc.epoch != e.epoch || !needToken[tc.unit] {
				tc.conn.Close()
				continue
			}
			if err := e.part.AttachBridge(tc.unit, tc.conn, c.restoreCycle); err != nil {
				tc.conn.Close()
				return c.collectFailure(e, "attach "+UnitName(tc.unit)+": "+err.Error())
			}
			delete(needToken, tc.unit)
		case ev := <-c.evCh:
			switch {
			case ev.lost != nil:
				if c.procs[ev.p.name] == ev.p {
					e.fail(ev.p.name, "control connection lost: "+ev.lost.Error())
					return c.collectFailure(e, "")
				}
			case ev.typ == msgReady && ev.ready.Epoch == e.epoch:
				delete(needReady, ev.p)
			case ev.typ == msgError && ev.errm.Epoch == e.epoch:
				e.fail(ev.p.name, "assign failed: "+ev.errm.Msg)
				return c.collectFailure(e, "")
			default:
				// Stale frame from a superseded epoch; drop.
			}
		case <-time.After(time.Until(deadline)):
			for _, p := range procs {
				if needReady[p] {
					e.fail(p.name, "ready timeout")
				}
			}
			if len(needReady) == 0 {
				e.fail("", fmt.Sprintf("token dial timeout (%d unit(s) unattached)", len(needToken)))
			}
			return c.collectFailure(e, "")
		}
	}
	return nil
}

// collectFailure finalises a failed epoch into its failure record.
func (c *coordinator) collectFailure(e *epochRun, reason string) *epochFailure {
	if reason != "" {
		e.fail("", reason)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	f := &epochFailure{epoch: e.epoch, reason: e.reason, suspects: make(map[string]string, len(e.suspects))}
	for k, v := range e.suspects {
		f.suspects[k] = v
	}
	return f
}

// runSlices drives checkpointed lockstep slices to the horizon. A
// recovery that rewound exactly to the horizon replays the final slice
// as a zero-length one: run-to is idempotent at the target, and the Done
// replies still carry the hashes.
func (c *coordinator) runSlices(e *epochRun, procs []*shardProc) (*DistReport, *epochFailure) {
	for {
		cur := uint64(e.part.Runner.Cycle())
		target := cur + c.cfg.CkptEvery
		if target > c.cfg.Horizon {
			target = c.cfg.Horizon
		}
		final := target == c.cfg.Horizon
		e.target.Store(target)
		e.running.Store(true)

		for _, p := range procs {
			if err := WriteControl(p.conn, msgRunTo, RunToMsg{Target: target, Final: final}); err != nil {
				e.fail(p.name, "send run-to: "+err.Error())
			}
		}

		// The root's own slice: its token exchanges ARE the lockstep
		// coupling with every shard. Chunked by step so the progress
		// clock stays fresh for the watchdog.
		var sliceErr error
		for uint64(e.part.Runner.Cycle()) < target && sliceErr == nil && !e.failedNow() {
			sliceErr = e.part.RunSlice(e.part.Step)
			c.rootCycle.Store(uint64(e.part.Runner.Cycle()))
			c.rootProgress.Store(time.Now().UnixNano())
		}
		if sliceErr != nil && !e.failedNow() {
			// Attribute bridge deaths to the procs owning those units; a
			// pure local error (a contained panic in the root switch)
			// fails the epoch with no suspects — recovery rewinds
			// everyone without killing anyone.
			blamed := false
			for unit, br := range e.part.Bridges {
				if err := br.Err(); err != nil {
					if p := c.procOfUnit(procs, unit); p != nil {
						e.fail(p.name, fmt.Sprintf("token plane to %s: %v", UnitName(unit), err))
						blamed = true
					}
				}
			}
			if !blamed {
				e.fail("", "root slice: "+sliceErr.Error())
			}
		}
		if e.failedNow() {
			e.running.Store(false)
			return nil, c.collectFailure(e, "")
		}

		// Persist the root generation ONLY after a fully clean slice:
		// this is what keeps a degraded-stream generation out of
		// CoordinatedCycle forever.
		if err := c.rootStore.Save(target, func(w io.Writer) error {
			return e.part.SaveUnit(w, RootUnit)
		}); err != nil {
			e.running.Store(false)
			return nil, c.collectFailure(e, fmt.Sprintf("persist root at %d: %v", target, err))
		}

		hashes, f := c.collectDones(e, procs, target, final)
		e.running.Store(false)
		if f != nil {
			return nil, f
		}
		if !final {
			continue
		}
		rootHashes, err := e.part.UnitHashes()
		if err != nil {
			return nil, c.collectFailure(e, "root hashes: "+err.Error())
		}
		all, err := MergeHashes(append(hashes, rootHashes)...)
		if err != nil {
			return nil, c.collectFailure(e, err.Error())
		}
		return &DistReport{
			Cycle:    target,
			Hashes:   all,
			Combined: CombineHashes(all),
		}, nil
	}
}

func (c *coordinator) procOfUnit(procs []*shardProc, unit int) *shardProc {
	for _, p := range procs {
		for _, u := range p.units {
			if u == unit {
				return p
			}
		}
	}
	return nil
}

// collectDones gathers every proc's Done for the slice (with hashes on
// the final slice), guarded by the watchdogs and a hard timeout.
func (c *coordinator) collectDones(e *epochRun, procs []*shardProc, target uint64, final bool) ([]map[string]uint64, *epochFailure) {
	pendingProcs := make(map[*shardProc]bool, len(procs))
	for _, p := range procs {
		pendingProcs[p] = true
	}
	var hashes []map[string]uint64
	timer := time.NewTimer(c.cfg.SetupTimeout)
	defer timer.Stop()
	for len(pendingProcs) > 0 {
		select {
		case <-e.failed:
			return nil, c.collectFailure(e, "")
		case <-timer.C:
			for p := range pendingProcs {
				e.fail(p.name, fmt.Sprintf("done timeout at slice %d", target))
			}
			return nil, c.collectFailure(e, "")
		case ev := <-c.evCh:
			switch {
			case ev.lost != nil:
				if pendingProcs[ev.p] {
					e.fail(ev.p.name, "control connection lost: "+ev.lost.Error())
					return nil, c.collectFailure(e, "")
				}
			case ev.typ == msgDone && ev.done.Epoch == e.epoch && pendingProcs[ev.p]:
				if ev.done.Cycle != target {
					e.fail(ev.p.name, fmt.Sprintf("done at cycle %d, slice target %d", ev.done.Cycle, target))
					return nil, c.collectFailure(e, "")
				}
				if final {
					hashes = append(hashes, ev.done.Hashes)
				}
				delete(pendingProcs, ev.p)
			case ev.typ == msgError && ev.errm.Epoch == e.epoch:
				e.fail(ev.p.name, "slice error: "+ev.errm.Msg)
				return nil, c.collectFailure(e, "")
			default:
				// Stale epoch frame; drop.
			}
		}
	}
	return hashes, nil
}

// watchdog enforces the liveness lease and the progress deadline while a
// slice is in flight. Lease expiry names its suspect; a progress stall
// does not — the minimum-cycle heuristic misattributes under lockstep
// blocking (the root's in-window exchange order can freeze healthy
// shards at the victim's cycle), so a stall fails the epoch suspectless
// and recovery rewinds everyone. A truly wedged process then misses the
// next epoch's setup deadline and is killed on that evidence instead.
func (c *coordinator) watchdog(e *epochRun, procs []*shardProc, stop chan struct{}) {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-e.failed:
			return
		case <-tick.C:
			if !e.running.Load() {
				continue
			}
			now := time.Now().UnixNano()
			for _, p := range procs {
				if now-p.lastFrame.Load() > int64(c.cfg.Lease) {
					e.fail(p.name, fmt.Sprintf("liveness lease expired (silent for %v)", c.cfg.Lease))
				}
			}
			if c.rootCycle.Load() < e.target.Load() {
				latest := c.rootProgress.Load()
				for _, p := range procs {
					if v := p.lastProgress.Load(); v > latest {
						latest = v
					}
				}
				if now-latest > int64(c.cfg.StallAfter) {
					e.fail("", fmt.Sprintf("progress watchdog: target time frozen for %v at cycle %d", c.cfg.StallAfter, c.maxObservedCycle()))
				}
			}
		}
	}
}

// chaosWatcher delivers scheduled kill/stop events the moment the victim
// reports reaching the trigger cycle — mid-slice, not at a tidy boundary.
func (c *coordinator) chaosWatcher(procs []*shardProc, stop chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, cs := range c.chaos {
				if cs.done.Load() || (cs.ev.Kind != faults.ChaosKill && cs.ev.Kind != faults.ChaosStop) {
					continue
				}
				for _, p := range procs {
					if p.name != cs.ev.Target || p.lastCycle.Load() < cs.ev.Cycle {
						continue
					}
					if !cs.done.CompareAndSwap(false, true) {
						break
					}
					if cs.ev.Kind == faults.ChaosKill {
						c.logf("chaos: SIGKILL %s at cycle >= %d", p.name, cs.ev.Cycle)
						p.cmd.Process.Kill()
					} else {
						c.logf("chaos: SIGSTOP %s at cycle >= %d", p.name, cs.ev.Cycle)
						p.cmd.Process.Signal(syscall.SIGSTOP)
					}
				}
			}
		}
	}
}

// applyTearChaos truncates the newest checkpoint generation of each
// targeted unit's store — simulating a crash mid-checkpoint-write
// discovered at recovery time. The store's whole-file CRC catches the
// tear and CoordinatedCycle falls back to the previous intact
// generation.
func (c *coordinator) applyTearChaos() {
	for _, cs := range c.chaos {
		if cs.ev.Kind != faults.ChaosTear || cs.done.Load() {
			continue
		}
		var dir string
		if cs.ev.Target == UnitName(RootUnit) {
			dir = c.rootStore.Dir()
		} else {
			for u, st := range c.unitStores {
				if UnitName(u) == cs.ev.Target {
					dir = st.Dir()
				}
			}
		}
		if dir == "" {
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		newest := ""
		for _, ent := range entries {
			if strings.HasPrefix(ent.Name(), "ckpt-") && ent.Name() > newest {
				newest = ent.Name()
			}
		}
		if newest == "" {
			continue
		}
		path := filepath.Join(dir, newest)
		if fi, err := os.Stat(path); err == nil {
			if err := os.Truncate(path, fi.Size()/2); err == nil {
				cs.done.Store(true)
				c.logf("chaos: tore %s to %d bytes", path, fi.Size()/2)
			}
		}
	}
}

// recover plans the next epoch after a failure: kill the suspects,
// consume any chaos stall that caused a suspectless progress failure,
// apply tear chaos, find the coordinated rewind point, respawn while the
// budget lasts, and re-pack all units over the resulting fleet.
func (c *coordinator) recover(f *epochFailure) (map[string][]int, error) {
	// A suspectless progress stall was (when armed) the chaos stall
	// doing its job: mark it consumed so the victim is not re-stalled
	// every epoch. The process stays alive — it heals by rewind. A failure
	// with suspects (a kill detected after the victim ran past its stall
	// cycle) leaves the stall armed for the next epoch.
	for _, p := range c.procs {
		if len(f.suspects) == 0 && p.stallArmed != nil && p.lastCycle.Load() >= p.stallArmed.ev.Cycle {
			p.stallArmed.done.Store(true)
		}
	}
	for name, reason := range f.suspects {
		c.logf("recovery %d: killing %s (%s)", c.recoveries, name, reason)
		c.killProc(name)
	}

	c.applyTearChaos()

	stores := make([]*snapshot.Store, 0, len(c.unitStores)+1)
	for _, st := range c.unitStores {
		stores = append(stores, st)
	}
	stores = append(stores, c.rootStore)
	if cycle, ok := snapshot.CoordinatedCycle(stores); ok {
		c.restore = true
		c.restoreCycle = cycle
	} else {
		// Nothing coordinated survives (a failure before the first
		// baselines landed everywhere): heal by a deterministic fresh
		// start instead of giving up.
		c.restore = false
		c.restoreCycle = 0
		c.logf("recovery %d: no coordinated checkpoint; restarting from cycle 0", c.recoveries)
	}

	// Respawn replacements while the budget lasts; otherwise the packing
	// below spreads the lost units over the survivors.
	for len(c.procs)+len(c.pending) < c.cfg.Procs && c.respawnsLeft > 0 {
		name := c.freeProcName()
		if err := c.spawnProc(name); err != nil {
			return nil, err
		}
		c.respawnsLeft--
	}
	names := c.fleetNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("manager: distributed: no shard processes left and respawn budget exhausted")
	}
	c.logf("recovery %d: rewinding to cycle %d with %d proc(s)", c.recoveries, c.restoreCycle, len(names))
	return c.packOnto(names), nil
}

// freeProcName picks the lowest shard<i> not currently in the fleet.
func (c *coordinator) freeProcName() string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("shard%d", i)
		if _, ok := c.procs[name]; ok {
			continue
		}
		if _, ok := c.pending[name]; ok {
			continue
		}
		return name
	}
}

// shutdown tears the whole fleet down: polite Shutdown frames first,
// then unconditional kills, then the listeners.
func (c *coordinator) shutdown() {
	for _, p := range c.procs {
		WriteControl(p.conn, msgShutdown, nil)
	}
	time.Sleep(50 * time.Millisecond)
	for name := range c.procs {
		c.killProc(name)
	}
	for name := range c.pending {
		c.killProc(name)
	}
	if c.controlLn != nil {
		c.controlLn.Close()
	}
	if c.tokenLn != nil {
		c.tokenLn.Close()
	}
}
