// The coordinator of a self-healing multi-process run. It owns the root
// switch partition and both wire planes (control + token), spawns and
// adopts shard worker processes, drives them through lockstep
// checkpointed slices, and — when a shard dies, hangs or its checkpoint
// tears — rewinds the whole cluster to the last coordinated generation
// and rebuilds the next epoch: respawning replacements while the budget
// lasts, then elastically re-packing lost units onto the survivors.
//
// All run state belongs to one goroutine, the coordinator loop (await).
// The loop serves five sources: Hellos, token connections, every control
// frame the shard readers forward, the end of the root partition's slice
// (which runs on its own goroutine and publishes only its cycle), and a
// 25 ms tick. Its handlers take the time from the loop, so a test can
// drive them on a fake clock.
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
//
// Chaos kill and stop events fire inside the loop, the moment the victim
// reports a cycle at or past the trigger. Shutdown is acknowledged: every
// shard gets a Shutdown frame and one Lease to exit, and is SIGKILLed
// only if it is still running then; every process is reaped before
// RunDistributed returns.
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
	// control plane this long is declared dead. Shutdown also gives the
	// shards this long to exit before it kills them.
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
	done bool
}

// shardEvent is one control frame, or the loss of the connection,
// forwarded from a shard reader goroutine to the coordinator loop.
type shardEvent struct {
	p       *shardProc
	typ     byte // 0 when lost is set
	payload []byte
	lost    error
}

// shardProc is the coordinator's view of one worker process.
type shardProc struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
	conn   net.Conn      // nil until its Hello is adopted
	units  []int
	epoch  uint32 // the latest epoch it was assigned into

	lastFrame    time.Time // last control frame (zero until adopted)
	lastCycle    uint64
	lastProgress time.Time   // last change of lastCycle
	stallArmed   *chaosState // chaos stall delivered in the current assign
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

// replyName names the reply an epoch waits for, for timeout reasons.
var replyName = map[byte]string{msgHello: "hello", msgReady: "ready", msgDone: "done"}

// epochRun is the state of one assignment epoch, owned by the loop
// goroutine. A failed epoch is also the failure record recovery plans
// from.
type epochRun struct {
	epoch uint32
	procs []*shardProc // the epoch's procs, sorted by name
	part  *Partition   // root partition
	stop  chan struct{}

	reason   string            // empty while the epoch is healthy
	suspects map[string]string // proc name → reason (may stay empty)

	// What await waits for: a want-typed reply from every proc in
	// waiting, a token connection for every unit in needToken, and the
	// end of the root slice while rootRunning.
	want      byte
	waiting   map[*shardProc]bool
	needToken map[int]bool
	target    uint64 // the cycle awaited replies must report
	final     bool   // the slice to target is the last one
	hashes    []map[string]uint64
	deadline  time.Time // for the replies; zero while the root slice runs

	rootRunning  bool
	rootDone     chan error
	rootCycle    uint64    // the root's cycle as the loop last saw it
	rootProgress time.Time // when that cycle last changed
}

// fail records the epoch's failure. Only the first call counts: it closes
// stop and the token plane, which unblocks every in-flight exchange in
// the whole cluster, so later failures are its echoes.
func (e *epochRun) fail(reason string, suspects ...string) {
	if e.reason != "" {
		return
	}
	e.reason = reason
	for _, name := range suspects {
		e.suspects[name] = reason
	}
	close(e.stop)
	e.part.CloseBridges()
}

func (e *epochRun) stopped() bool {
	select {
	case <-e.stop:
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
	evCh    chan shardEvent // buffered so readers run ahead of a loop between awaits
	quit    chan struct{}   // closed at shutdown: the readers stop forwarding

	procs   map[string]*shardProc // adopted (hello received)
	pending map[string]*shardProc // spawned, hello not yet received

	weights    []int // servers per partition unit
	unitStores map[int]*snapshot.Store
	rootStore  *snapshot.Store

	epoch        uint32
	chaos        []*chaosState
	respawnsLeft int
	recoveries   int
	restoreCycle uint64
	restore      bool

	rootCycle atomic.Uint64 // published by the root slice goroutine
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
		quit:         make(chan struct{}),
		procs:        make(map[string]*shardProc),
		pending:      make(map[string]*shardProc),
		respawnsLeft: cfg.RespawnBudget,
	}
	for _, ev := range cfg.Chaos {
		c.chaos = append(c.chaos, &chaosState{ev: ev})
	}
	c.weights = unitWeights(root, cfg.Spec.CutLevel)
	c.unitStores = make(map[int]*snapshot.Store, units)
	for i := 0; i < units; i++ {
		st, err := snapshot.NewStore(filepath.Join(cfg.BaseDir, "units", UnitName(i)), 0)
		if err != nil {
			return nil, err
		}
		c.unitStores[i] = st
	}
	c.rootStore, err = snapshot.NewStore(filepath.Join(cfg.BaseDir, UnitName(RootUnit)), 0)
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
			report.Epochs = int(c.epoch)
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
func unitWeights(root NodeSpec, cutLevel int) []int {
	cuts := CutUnits(root, cutLevel)
	w := make([]int, len(cuts))
	for i, d := range cuts {
		w[i] = CountServers(*d)
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
		if p.lastCycle > max {
			max = p.lastCycle
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
// arrives on the control listener. Liveness is tracked by the lease, not
// by exit: the reaping goroutine only closes exited, for shutdown.
func (c *coordinator) spawnProc(name string) error {
	cmd := c.cfg.Spawn(name, c.controlLn.Addr().String())
	if cmd == nil {
		return fmt.Errorf("manager: distributed: Spawn(%q) returned nil", name)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("manager: distributed: spawn %s: %w", name, err)
	}
	p := &shardProc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	c.pending[name] = p
	c.logf("spawned %s (pid %d)", name, cmd.Process.Pid)
	return nil
}

// killProc removes a process from the fleet with prejudice and reaps it.
// SIGKILL works on SIGSTOPped processes too, which is exactly the chaos
// case.
func (c *coordinator) killProc(name string) {
	p, ok := c.procs[name]
	if !ok {
		p, ok = c.pending[name]
	}
	if !ok {
		return
	}
	delete(c.procs, name)
	delete(c.pending, name)
	if p.conn != nil {
		p.conn.Close()
	}
	if p.cmd != nil {
		p.cmd.Process.Kill()
		<-p.exited
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

// acceptTokens accepts token-plane connections and validates the
// preamble; the loop drops those from a superseded epoch.
func (c *coordinator) acceptTokens() {
	for {
		conn, err := c.tokenLn.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			unit, epoch, err := transport.ReadTokenPreamble(conn, 15*time.Second)
			if err != nil {
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

// readShard forwards one adopted shard's control frames to the loop, up
// to and including the loss of its connection, or until shutdown.
func (c *coordinator) readShard(p *shardProc) {
	for {
		typ, payload, err := ReadControl(p.conn)
		select {
		case c.evCh <- shardEvent{p: p, typ: typ, payload: payload, lost: err}:
		case <-c.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// await is the coordinator loop. It serves every source until the epoch
// has each reply it waits for (true), or has failed and its root slice,
// if one runs, has ended (false). The handlers take the time from it.
func (c *coordinator) await(e *epochRun, tick <-chan time.Time) bool {
	for e.rootRunning || (e.reason == "" && (len(e.waiting) > 0 || len(e.needToken) > 0)) {
		select {
		case h := <-c.helloCh:
			c.adopt(e, h, time.Now())
		case tc := <-c.tokenCh:
			c.attach(e, tc)
		case ev := <-c.evCh:
			c.handle(e, ev, time.Now())
		case err := <-e.rootDone:
			c.rootFinished(e, err, time.Now())
		case now := <-tick:
			c.check(e, now)
		}
	}
	return e.reason == ""
}

// adopt gives a spawned process its control connection and a reader; a
// Hello naming no pending process is refused.
func (c *coordinator) adopt(e *epochRun, h helloConn, now time.Time) {
	p, ok := c.pending[h.name]
	if !ok {
		h.conn.Close()
		return
	}
	delete(c.pending, h.name)
	p.conn = h.conn
	p.lastFrame = now
	p.lastProgress = now
	c.procs[h.name] = p
	delete(e.waiting, p)
	go c.readShard(p)
	c.logf("adopted %s", h.name)
}

// attach joins an epoch-tagged token connection to the root partition.
// One from a superseded epoch, or for a unit already attached, is closed.
func (c *coordinator) attach(e *epochRun, tc tokenConn) {
	if tc.epoch != e.epoch || !e.needToken[tc.unit] {
		tc.conn.Close()
		return
	}
	if err := e.part.AttachBridge(tc.unit, tc.conn, c.restoreCycle); err != nil {
		tc.conn.Close()
		e.fail("attach " + UnitName(tc.unit) + ": " + err.Error())
		return
	}
	delete(e.needToken, tc.unit)
}

// handle applies one shard event to the epoch. Every frame renews the
// sender's lease. Replies and errors from a superseded epoch are stale,
// not protocol violations, and are dropped; a lost control connection
// fails the epoch if its proc is in it.
func (c *coordinator) handle(e *epochRun, ev shardEvent, now time.Time) {
	p := ev.p
	if ev.lost != nil {
		if p.epoch == e.epoch {
			e.fail("control connection lost: "+ev.lost.Error(), p.name)
		}
		return
	}
	p.lastFrame = now
	switch ev.typ {
	case msgProgress:
		var m ProgressMsg
		if decodeControl(ev.typ, ev.payload, &m) == nil {
			c.observe(e, p, m.Cycle, now)
		}
	case msgReady, msgDone:
		var m DoneMsg // a Ready carries the same epoch and cycle
		if decodeControl(ev.typ, ev.payload, &m) != nil {
			return
		}
		c.observe(e, p, m.Cycle, now)
		if m.Epoch != e.epoch || ev.typ != e.want || !e.waiting[p] {
			return
		}
		if m.Cycle != e.target {
			e.fail(fmt.Sprintf("%s at cycle %d, awaited at %d", replyName[ev.typ], m.Cycle, e.target), p.name)
			return
		}
		if e.final {
			e.hashes = append(e.hashes, m.Hashes)
		}
		delete(e.waiting, p)
	case msgError:
		var m ErrorMsg
		if decodeControl(ev.typ, ev.payload, &m) == nil && m.Epoch == e.epoch {
			e.fail(fmt.Sprintf("shard error at cycle %d: %s", m.Cycle, m.Msg), p.name)
		}
	}
}

// observe records a proc's reported cycle and delivers a scheduled kill
// or stop the moment its victim reaches the trigger cycle — mid-slice,
// not at a tidy boundary.
func (c *coordinator) observe(e *epochRun, p *shardProc, cycle uint64, now time.Time) {
	if cycle != p.lastCycle {
		p.lastCycle = cycle
		p.lastProgress = now
	}
	if p.epoch != e.epoch {
		return
	}
	for _, cs := range c.chaos {
		if cs.done || cs.ev.Target != p.name || cycle < cs.ev.Cycle {
			continue
		}
		switch cs.ev.Kind {
		case faults.ChaosKill:
			c.logf("chaos: SIGKILL %s at cycle >= %d", p.name, cs.ev.Cycle)
			p.cmd.Process.Kill()
		case faults.ChaosStop:
			c.logf("chaos: SIGSTOP %s at cycle >= %d", p.name, cs.ev.Cycle)
			p.cmd.Process.Signal(syscall.SIGSTOP)
		default:
			continue
		}
		cs.done = true
	}
}

// check applies the clock to the epoch. The liveness lease covers every
// adopted proc in the epoch. The progress watchdog applies while the
// root slice runs; it names no suspect, because the minimum-cycle
// heuristic misattributes under lockstep blocking (the root's in-window
// exchange order can freeze healthy shards at the victim's cycle), so
// recovery rewinds everyone. A truly wedged process then misses the next
// epoch's reply deadline and is killed on that evidence instead. Past
// the deadline, the procs whose reply is missing are named.
func (c *coordinator) check(e *epochRun, now time.Time) {
	var silent []string
	for _, p := range e.procs {
		if !p.lastFrame.IsZero() && now.Sub(p.lastFrame) > c.cfg.Lease {
			silent = append(silent, p.name)
		}
	}
	if len(silent) > 0 {
		e.fail(fmt.Sprintf("liveness lease expired (silent for %v)", c.cfg.Lease), silent...)
	}
	if e.rootRunning {
		if cycle := c.rootCycle.Load(); cycle != e.rootCycle || e.rootProgress.IsZero() {
			e.rootCycle = cycle
			e.rootProgress = now
		}
		latest := e.rootProgress
		for _, p := range e.procs {
			if p.lastProgress.After(latest) {
				latest = p.lastProgress
			}
		}
		if now.Sub(latest) > c.cfg.StallAfter {
			e.fail(fmt.Sprintf("progress watchdog: target time frozen for %v at cycle %d", c.cfg.StallAfter, c.maxObservedCycle()))
		}
	}
	if !e.deadline.IsZero() && now.After(e.deadline) {
		var late []string
		for _, p := range e.procs {
			if e.waiting[p] {
				late = append(late, p.name)
			}
		}
		reason := fmt.Sprintf("%s timeout at cycle %d", replyName[e.want], e.target)
		if len(late) == 0 {
			reason = fmt.Sprintf("token dial timeout (%d unit(s) unattached)", len(e.needToken))
		}
		e.fail(reason, late...)
	}
}

// rootFinished ends the root's slice. A clean finish starts the deadline
// for the shards' Done replies. A failed one blames the procs owning the
// broken bridges; a purely local error (a contained panic in the root
// switch) blames nobody, and recovery rewinds everyone without killing
// anyone.
func (c *coordinator) rootFinished(e *epochRun, err error, now time.Time) {
	e.rootRunning = false
	if err == nil {
		e.deadline = now.Add(c.cfg.SetupTimeout)
		return
	}
	var blamed []string
	for _, p := range e.procs {
		for _, u := range p.units {
			if e.part.Bridges[u].Err() != nil {
				blamed = append(blamed, p.name)
				break
			}
		}
	}
	e.fail("root slice: "+err.Error(), blamed...)
}

// runEpoch drives one assignment epoch to the horizon (a report) or to
// failure (the failed epoch, for recovery planning). The deadline for
// the Hellos and Readys runs from the start of the epoch.
func (c *coordinator) runEpoch(assignments map[string][]int) (*DistReport, *epochRun) {
	c.epoch++
	names := make([]string, 0, len(assignments))
	for n := range assignments {
		names = append(names, n)
	}
	sort.Strings(names)
	c.logf("epoch %d: assigning %d proc(s), restore=%v cycle=%d", c.epoch, len(names), c.restore, c.restoreCycle)

	part, err := c.rootPartition()
	if err != nil {
		return nil, &epochRun{epoch: c.epoch, reason: err.Error()}
	}
	defer part.CloseBridges()
	c.rootCycle.Store(c.restoreCycle)
	e := &epochRun{
		epoch:    c.epoch,
		part:     part,
		stop:     make(chan struct{}),
		suspects: map[string]string{},
		want:     msgHello,
		waiting:  map[*shardProc]bool{},
		target:   c.restoreCycle,
		deadline: time.Now().Add(c.cfg.SetupTimeout),
		rootDone: make(chan error, 1),
	}
	for _, n := range names {
		p, adopted := c.procs[n]
		if !adopted {
			p = c.pending[n]
			e.waiting[p] = true
		}
		p.epoch = e.epoch
		p.units = assignments[n]
		p.stallArmed = nil
		e.procs = append(e.procs, p)
	}
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	if !c.await(e, tick.C) {
		return nil, e
	}

	// Assign every proc its units; arm a pending chaos stall on its
	// victim when the trigger cycle is still ahead of the restore point.
	e.want = msgReady
	e.needToken = make(map[int]bool, len(c.unitStores))
	for u := range c.unitStores {
		e.needToken[u] = true
	}
	for _, p := range e.procs {
		m := AssignMsg{
			Epoch:        e.epoch,
			Spec:         c.spec,
			TokenAddr:    c.tokenLn.Addr().String(),
			Restore:      c.restore,
			RestoreCycle: c.restoreCycle,
		}
		for _, u := range p.units {
			m.Units = append(m.Units, UnitAssign{Unit: u, StoreDir: c.unitStores[u].Dir()})
		}
		for _, cs := range c.chaos {
			if cs.ev.Kind == faults.ChaosStall && cs.ev.Target == p.name && !cs.done && cs.ev.Cycle > c.restoreCycle {
				m.StallAt, m.StallMs = cs.ev.Cycle, cs.ev.StallMs
				p.stallArmed = cs
			}
		}
		if err := WriteControl(p.conn, msgAssign, m); err != nil {
			// The proc's control conn is dead: blame it, so recovery
			// kills it instead of re-packing onto the same conn.
			e.fail(fmt.Sprintf("assign %s: %v", p.name, err), p.name)
			return nil, e
		}
		e.waiting[p] = true
	}
	if !c.await(e, tick.C) {
		return nil, e
	}
	return c.runSlices(e, tick.C)
}

// rootPartition rebuilds the root partition from the spec, restored from
// the root store when recovering and persisted as the cycle-0 baseline
// otherwise. The bridge timeout mirrors the shard side: supervision
// closes connections long before it fires.
func (c *coordinator) rootPartition() (*Partition, error) {
	part, err := BuildPartition(c.spec, nil, shardBridgeTimeout)
	if err != nil {
		return nil, fmt.Errorf("build root partition: %w", err)
	}
	if !c.restore {
		if err := c.rootStore.Save(0, func(w io.Writer) error {
			return part.SaveUnit(w, RootUnit)
		}); err != nil {
			return nil, fmt.Errorf("persist root baseline: %w", err)
		}
		return part, nil
	}
	data, err := c.rootStore.Load(c.restoreCycle)
	if err != nil {
		return nil, fmt.Errorf("load root checkpoint at %d: %w", c.restoreCycle, err)
	}
	got, err := part.RestoreUnit(data, RootUnit)
	if err != nil {
		return nil, fmt.Errorf("restore root partition: %w", err)
	}
	if got != c.restoreCycle {
		return nil, fmt.Errorf("root checkpoint cycle %d, recovery wants %d", got, c.restoreCycle)
	}
	if err := part.Runner.SetCycle(clock.Cycles(c.restoreCycle)); err != nil {
		return nil, err
	}
	return part, nil
}

// runSlices drives checkpointed lockstep slices to the horizon. A
// recovery that rewound exactly to the horizon replays the final slice
// as a zero-length one: run-to is idempotent at the target, and the Done
// replies still carry the hashes.
func (c *coordinator) runSlices(e *epochRun, tick <-chan time.Time) (*DistReport, *epochRun) {
	for {
		e.want = msgDone
		e.target = min(uint64(e.part.Runner.Cycle())+c.cfg.CkptEvery, c.cfg.Horizon)
		e.final = e.target == c.cfg.Horizon
		e.deadline = time.Time{}
		e.rootProgress = time.Time{}
		for _, p := range e.procs {
			if err := WriteControl(p.conn, msgRunTo, RunToMsg{Target: e.target, Final: e.final}); err != nil {
				e.fail("send run-to: "+err.Error(), p.name)
			}
			e.waiting[p] = true
		}
		e.rootRunning = true
		go c.runRoot(e, e.target)
		if !c.await(e, tick) {
			return nil, e
		}
		if !e.final {
			continue
		}
		rootHashes, err := e.part.UnitHashes()
		if err != nil {
			e.fail("root hashes: " + err.Error())
			return nil, e
		}
		all, err := MergeHashes(append(e.hashes, rootHashes)...)
		if err != nil {
			e.fail(err.Error())
			return nil, e
		}
		return &DistReport{
			Cycle:    e.target,
			Hashes:   all,
			Combined: CombineHashes(all),
		}, nil
	}
}

// runRoot runs the root partition's slice on its own goroutine: its
// token exchanges ARE the lockstep coupling with every shard. It goes
// step by step, publishing its cycle for the progress watchdog and
// stopping once the epoch fails. It persists the root generation ONLY
// after a fully clean slice: this is what keeps a degraded-stream
// generation out of CoordinatedCycle forever.
func (c *coordinator) runRoot(e *epochRun, target uint64) {
	var err error
	for uint64(e.part.Runner.Cycle()) < target && err == nil && !e.stopped() {
		err = e.part.RunSlice(e.part.Step)
		c.rootCycle.Store(uint64(e.part.Runner.Cycle()))
	}
	if err == nil && !e.stopped() {
		err = c.rootStore.Save(target, func(w io.Writer) error {
			return e.part.SaveUnit(w, RootUnit)
		})
		if err != nil {
			err = fmt.Errorf("persist root at %d: %w", target, err)
		}
	}
	e.rootDone <- err
}

// applyTearChaos truncates the newest checkpoint generation of each
// targeted unit's store — simulating a crash mid-checkpoint-write
// discovered at recovery time. The store's whole-file CRC catches the
// tear and CoordinatedCycle falls back to the previous intact
// generation.
func (c *coordinator) applyTearChaos() {
	for _, cs := range c.chaos {
		if cs.ev.Kind != faults.ChaosTear || cs.done {
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
				cs.done = true
				c.logf("chaos: tore %s to %d bytes", path, fi.Size()/2)
			}
		}
	}
}

// recover plans the next epoch after a failure: kill the suspects,
// consume any chaos stall that caused a suspectless progress failure,
// apply tear chaos, find the coordinated rewind point, respawn while the
// budget lasts, and re-pack all units over the resulting fleet.
func (c *coordinator) recover(f *epochRun) (map[string][]int, error) {
	// A suspectless progress stall was (when armed) the chaos stall
	// doing its job: mark it consumed so the victim is not re-stalled
	// every epoch. The process stays alive — it heals by rewind. A failure
	// with suspects (a kill detected after the victim ran past its stall
	// cycle) leaves the stall armed for the next epoch.
	for _, p := range c.procs {
		if len(f.suspects) == 0 && p.stallArmed != nil && p.lastCycle >= p.stallArmed.ev.Cycle {
			p.stallArmed.done = true
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

// shutdown tears the whole fleet down: a Shutdown frame to every adopted
// proc, one Lease shared by all of them to exit, then SIGKILL for any
// still running and for procs never adopted. Every process has been
// reaped when it returns.
func (c *coordinator) shutdown() {
	close(c.quit)
	c.controlLn.Close()
	c.tokenLn.Close()
	for _, p := range c.procs {
		WriteControl(p.conn, msgShutdown, nil)
	}
	deadline := time.Now().Add(c.cfg.Lease)
	for _, p := range c.procs {
		select {
		case <-p.exited:
		case <-time.After(time.Until(deadline)):
		}
	}
	for _, name := range c.fleetNames() {
		c.killProc(name)
	}
}
