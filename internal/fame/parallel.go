package fame

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/hostplatform"
	"repro/internal/token"
)

// This file implements RunParallel: a fixed, GOMAXPROCS-aware worker pool
// over a topology-aware partition of endpoints, each worker running the
// round loop of worker.go over its own plan. It replaced a
// goroutine-per-endpoint design that benchmarked *slower* than one worker
// at every topology size (two Go channel operations per port per round
// plus scheduler churn swamped the per-round work).
//
// The design follows the paper's actual performance mechanism:
// simulators run decoupled for up to a link latency of target cycles
// between synchronizations.
//
//   - partition() groups endpoints so that pairs exchanging tokens
//     co-locate on one worker whenever load balance allows. A link whose
//     two ends share a worker needs no synchronization at all: the worker
//     drives the link's persistent channel exactly as Run does.
//   - links that do cross workers become spscRing pairs (data + recycled
//     storage) sized to the link's latency depth. A worker can execute up
//     to LinkLatency/Step rounds ahead of a neighbour before a ring runs
//     empty/full, so one cache-line handoff is amortised over the whole
//     slack window instead of paying two channel ops per port per round.
//   - each worker ticks its endpoints in global registration order, which
//     together with FIFO link order makes the token streams bit-identical
//     to Run — with or without an Injector installed (hooks remain keyed
//     on absolute target cycle).
//
// Worker count: SetWorkers(n) (0 = GOMAXPROCS), capped at the endpoint
// count. When the partition is a single group, RunParallel is Run.
//
// Deadlock freedom: every cross-worker data ring has capacity ≥ depth+1
// (at least one free slot beyond the seeded in-flight population), so any
// wait-for cycle would need positive total slack around a topology cycle;
// intra-worker ordering edges are acyclic (index order) and every
// inter-worker edge carries slack ≥ 1, so no cycle of waits can close.

// SetWorkers configures how many workers RunParallel schedules endpoints
// onto: 0 (the default) means runtime.GOMAXPROCS. Like SetInjector it may
// be called between runs; mid-run changes are not supported. The worker
// count is host-side tuning only — token streams are bit-identical for
// every value.
func (r *Runner) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("fame: worker count must be >= 0 (0 = GOMAXPROCS), got %d", n)
	}
	r.workers = n
	return nil
}

// Workers reports the worker count the next RunParallel will use before
// capping at the endpoint count: the SetWorkers value, or GOMAXPROCS when
// unset.
func (r *Runner) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers reports how many workers the most recent RunParallel
// actually ran after capping at the endpoint count and dropping empty
// partition bins (0 before any RunParallel). Benchmarks record this so a
// measured rate is attributable to the worker count that produced it,
// not the requested one.
func (r *Runner) EffectiveWorkers() int { return r.effWorkers }

// SetMultiplexed is kept for existing callers.
//
// Deprecated: every worker runs its endpoints as one fused plan; this
// does nothing.
func (r *Runner) SetMultiplexed(bool) {}

// partition splits endpoint indices into at most `workers` groups. It is
// deterministic (a pure function of the registered topology and the
// worker count) and aims for two properties, in order:
//
//  1. balance: group weights stay near total/workers, with an endpoint's
//     port count as its cost proxy (a switch ticking 32 ports does
//     roughly 32 single-port endpoints' worth of work per round);
//  2. co-location: endpoints joined by a link merge into one group when
//     the balance cap allows, so their links need no synchronization.
//
// Greedy merge over links in registration order (union-find, capped at
// ceil(total/workers)), then the merged groups are packed by
// hostplatform.PackUnits — descending weight onto the least-loaded bin
// (worst-fit decreasing, the LPT balancing heuristic; NOT
// first-fit-decreasing, which minimises bin count rather than balancing a
// fixed bin set), ties broken by ascending group then bin index. This is
// the same packing the distributed reshard path uses, so in-process
// workers and multi-process shards balance identically. Empty bins are
// dropped; each returned group is sorted by endpoint index, which is the
// worker's tick order.
func (r *Runner) partition(workers int) [][]int {
	ne := len(r.endpoints)
	if workers > ne {
		workers = ne
	}
	if workers <= 1 {
		all := make([]int, ne)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}

	weight := make([]int, ne)
	total := 0
	for i, e := range r.endpoints {
		w := e.NumPorts()
		if w < 1 {
			w = 1
		}
		weight[i] = w
		total += w
	}
	maxGroup := (total + workers - 1) / workers

	parent := make([]int, ne)
	wsum := make([]int, ne)
	for i := range parent {
		parent[i] = i
		wsum[i] = weight[i]
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range r.links {
		a, b := find(l.a.ep), find(l.b.ep)
		if a == b || wsum[a]+wsum[b] > maxGroup {
			continue
		}
		if b < a {
			a, b = b, a // root at the smaller index: deterministic
		}
		parent[b] = a
		wsum[a] += wsum[b]
	}

	// Collect merged groups; scanning i ascending makes each group's
	// first member its smallest index, so group indices are ordered by
	// first member — which is what makes PackUnits' ascending-index
	// tie-break deterministic here too.
	groupOf := make(map[int]int, ne)
	var groups [][]int
	var gw []int
	for i := 0; i < ne; i++ {
		root := find(i)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(groups)
			groupOf[root] = gi
			groups = append(groups, nil)
			gw = append(gw, wsum[root])
		}
		groups[gi] = append(groups[gi], i)
	}

	var parts [][]int
	for _, unitIdxs := range hostplatform.PackUnits(gw, workers) {
		if len(unitIdxs) == 0 {
			continue
		}
		var bin []int
		for _, gi := range unitIdxs {
			bin = append(bin, groups[gi]...)
		}
		sort.Ints(bin)
		parts = append(parts, bin)
	}
	return parts
}

// ringPair is the cross-worker replacement for one directed channel: data
// carries filled batches producer→consumer, free returns recycled storage
// consumer→producer. Sized so that steady-state rounds never allocate and
// never drop recycled batches (the free ring holds the entire circulating
// population: data capacity plus one batch in each side's hands).
type ringPair struct {
	data *spscRing
	free *spscRing
	ch   *channel // the persistent channel the rings stand in for
}

// newRingPair moves ch's in-flight queue and free pool into fresh rings.
//
// Sizing invariant (checked, not assumed — see TestRingPairSizing):
//   - data holds depth+1 slots: depth seeded in-flight batches, plus one
//     slot so the producer can push its round's output before the
//     consumer pops (the transient Run also exhibits at a round
//     boundary);
//   - free holds depth+3 slots: the circulating population is bounded by
//     depth seeded batches + one in each side's hands = depth+2, and one
//     more slot keeps the bound strict rather than exact, so seeding
//     overflow is impossible by construction.
//
// Overflow is therefore a counted error, not a silent GC drop: hitting it
// means a broken invariant and the run must not proceed on a leaking
// pool.
func (r *Runner) newRingPair(ch *channel) (*ringPair, error) {
	depth := int(ch.latency / r.step)
	rp := &ringPair{
		data: newSPSCRing(depth + 1),
		free: newSPSCRing(depth + 3),
		ch:   ch,
	}
	for ch.queue.len() > 0 {
		if !rp.data.push(ch.queue.pop()) {
			rp.drain()
			return nil, fmt.Errorf("fame: data ring overflow seeding link (depth %d, cap %d)", depth, rp.data.cap())
		}
	}
	for _, b := range ch.free {
		if !rp.free.push(b) {
			r.poolDrops.Add(1)
			rp.drain()
			return nil, fmt.Errorf("fame: free-pool ring overflow seeding link (%d recycled batches, cap %d)", len(ch.free), rp.free.cap())
		}
	}
	ch.free = ch.free[:0]
	return rp, nil
}

// take returns a batch for the producer to fill: recycled storage when the
// consumer has returned some, a fresh allocation (counted in allocs)
// otherwise.
func (rp *ringPair) take(n int, allocs *atomic.Uint64) *token.Batch {
	if b, ok := rp.free.pop(); ok {
		b.Reset(n)
		return b
	}
	allocs.Add(1)
	return token.NewBatch(n)
}

// drain moves all ring contents back into the persistent channel, in FIFO
// order, so a subsequent Run or a checkpoint Save sees exactly the state
// it would after Run.
func (rp *ringPair) drain() {
	for {
		b, ok := rp.data.pop()
		if !ok {
			break
		}
		rp.ch.push(b)
	}
	for {
		b, ok := rp.free.pop()
		if !ok {
			break
		}
		rp.ch.recycle(b)
	}
	rp.ch.rp = nil
}

// ringSpin is how many failed pop/push attempts a worker burns before
// yielding the processor. Within a link's slack window attempts never
// fail; at the window edge the neighbour is at most one round of work
// away, so a short spin usually beats a scheduler round trip.
const ringSpin = 128

// popWait/pushWait block until the ring yields/accepts a batch — or until
// abort is raised, which happens when a sibling worker's endpoint
// panicked and will never produce (or consume) the batch this worker is
// waiting on. The abort check sits on the slow path only: within a link's
// slack window the first attempt succeeds and the flag is never loaded.
func popWait(q *spscRing, abort *atomic.Bool) (*token.Batch, bool) {
	for i := 0; ; i++ {
		if b, ok := q.pop(); ok {
			return b, true
		}
		if i >= ringSpin {
			if abort.Load() {
				return nil, false
			}
			runtime.Gosched()
		}
	}
}

func pushWait(q *spscRing, b *token.Batch, abort *atomic.Bool) bool {
	for i := 0; ; i++ {
		if q.push(b) {
			return true
		}
		if i >= ringSpin {
			if abort.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
}

// buildCrossRings replaces every channel whose producer and consumer land
// on different workers with an SPSC ring pair (recorded in channel.rp for
// compile), in endpoint/port order. On error the already-built rings are
// drained back so the runner state stays coherent (checkpointable,
// runnable).
func (r *Runner) buildCrossRings(owner []int) ([]*ringPair, error) {
	var rings []*ringPair
	for i := range r.endpoints {
		for _, ch := range r.outCh[i] {
			if ch == nil || owner[i] == owner[ch.cons] {
				continue
			}
			rp, err := r.newRingPair(ch)
			if err != nil {
				for _, built := range rings {
					built.drain()
				}
				return nil, err
			}
			ch.rp = rp
			rings = append(rings, rp)
		}
	}
	return rings, nil
}

// runParallel is RunParallel plus a wall-time measurement covering only
// the decoupled round loop: partitioning, ring construction, plan
// compilation and the final drain all happen outside the clock.
func (r *Runner) runParallel(cycles clock.Cycles) (time.Duration, error) {
	rounds, err := r.rounds(cycles)
	if err != nil {
		return 0, err
	}
	parts := r.partition(r.Workers())
	r.effWorkers = len(parts)
	if len(parts) == 1 {
		return r.run(cycles)
	}

	owner := make([]int, len(r.endpoints))
	for w, eps := range parts {
		for _, i := range eps {
			owner[i] = w
		}
	}
	rings, err := r.buildCrossRings(owner)
	if err != nil {
		return 0, err
	}
	plans := make([]*plan, len(parts))
	for w, eps := range parts {
		plans[w] = r.compile(eps)
	}

	// The first worker whose endpoint panics raises abort; every other
	// worker notices on its next slow-path ring wait (or round boundary)
	// and unwinds.
	var abort atomic.Bool
	perrs := make([]*EndpointPanicError, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for w, p := range plans {
		wg.Add(1)
		go func(w int, p *plan) {
			defer wg.Done()
			perrs[w] = r.work(p, r.cycle, rounds, &abort)
		}(w, p)
	}
	wg.Wait()
	wall := time.Since(start)

	// Move ring state back into the persistent channel queues so a
	// subsequent Run or checkpoint Save continues seamlessly — also after
	// a panic, so the runner stays structurally coherent, just poisoned
	// until a Restore.
	for _, rp := range rings {
		rp.drain()
	}
	var perr *EndpointPanicError
	for _, e := range perrs {
		if e != nil {
			perr = e
			break
		}
	}
	return r.finish(wall, rounds, perr)
}
