package softstack

import (
	"repro/internal/clock"
)

// This file implements the node's CPU scheduler model: a fixed number of
// cores, application threads with FIFO job queues, optional pinning, and a
// wake-placement policy that reproduces the thread-placement phenomena of
// Section IV-E (memcached thread imbalance and the smoothing effect of
// pinning).

// Job is a unit of CPU work executed by a thread: cost cycles of
// computation followed by a completion callback.
type Job struct {
	// Cost is the CPU time consumed, in cycles.
	Cost clock.Cycles
	// Fn runs at completion with the completion cycle.
	Fn func(done clock.Cycles)
}

// Thread is a schedulable entity.
type Thread struct {
	node *Node
	id   int
	// pinned is the core this thread is pinned to, or -1.
	pinned int
	// jobs is the FIFO work queue.
	jobs []Job
	// running reports whether the thread currently occupies a core.
	running bool
	// core is the core the thread is queued or running on (-1 when idle).
	core int
	// lastCore is where the thread last ran: wake placement prefers it
	// for cache affinity, like Linux's prev_cpu heuristic.
	lastCore int
	// wakes counts wakeups, used by the placement hash.
	wakes uint64
	// Busy accumulates CPU cycles consumed (for utilisation reporting).
	Busy clock.Cycles
}

// coreState is one CPU's run queue.
type coreState struct {
	// busyUntil is when the in-flight job finishes.
	busyUntil clock.Cycles
	// current is the thread whose job is in flight.
	current *Thread
	// runq holds threads waiting for this core.
	runq []*Thread
	// quantumStart is when the current thread was given the core; it may
	// run jobs back-to-back until SchedQuantum expires.
	quantumStart clock.Cycles
}

// scheduler is the per-node CPU model.
type scheduler struct {
	node  *Node
	cores []coreState
	// rngState drives deterministic wake placement.
	rngState uint64
}

func newScheduler(n *Node, cores int, seed uint64) *scheduler {
	return &scheduler{node: n, cores: make([]coreState, cores), rngState: seed*2862933555777941757 + 3037000493}
}

func (s *scheduler) rand() uint64 {
	// xorshift64*: deterministic, seedable, no global state.
	x := s.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rngState = x
	return x * 2685821657736338717
}

// NewThread creates a thread. pinned is a core index, or -1 for an
// unpinned thread subject to the wake-placement policy.
func (n *Node) NewThread(pinned int) *Thread {
	th := &Thread{node: n, id: len(n.threads), pinned: pinned, core: -1}
	th.lastCore = th.id % len(n.sched.cores)
	n.threads = append(n.threads, th)
	return th
}

// Submit queues a job on the thread at cycle now, waking the thread if it
// is idle.
func (th *Thread) Submit(now clock.Cycles, job Job) {
	th.jobs = append(th.jobs, job)
	if th.running || th.core >= 0 {
		return // already running or queued; job will be picked up
	}
	th.node.sched.wake(now, th)
}

// wake places a thread with pending work onto a core's run queue.
func (s *scheduler) wake(now clock.Cycles, th *Thread) {
	core := th.pinned
	if core < 0 {
		core = s.placeUnpinned(now, th)
	}
	th.core = core
	th.wakes++
	c := &s.cores[core]
	c.runq = append(c.runq, th)
	s.dispatch(now, core)
}

// placeUnpinned models Linux wake placement:
//
//   - prefer the thread's previous core for cache affinity (prev_cpu);
//     with five threads on four cores this keeps a sharing pair together,
//     the structural cause of the paper's thread-imbalance tail;
//   - occasionally explore another core even when prev is idle — the
//     "poor thread placement" the paper suspects behind the unpinned
//     4-thread p95 tracking the 5-thread curve at low-to-mid load;
//   - when prev is busy, sometimes stay anyway (wake affinity), otherwise
//     search for an idle core.
//
// Pinning removes all three effects, which is why the pinned curve is
// smooth.
func (s *scheduler) placeUnpinned(now clock.Cycles, th *Thread) int {
	n := len(s.cores)
	idle := func(c int) bool {
		return s.cores[c].current == nil && s.cores[c].busyUntil <= now && len(s.cores[c].runq) == 0
	}
	prev := th.lastCore
	const explorePct = 15
	const stayBusyPct = 30
	if idle(prev) {
		if s.rand()%100 < explorePct {
			return int(s.rand() % uint64(n)) // exploration: may collide
		}
		return prev
	}
	if s.rand()%100 < stayBusyPct {
		return prev // wake affinity onto a busy core
	}
	start := int(s.rand() % uint64(n))
	for i := 0; i < n; i++ {
		if c := (start + i) % n; idle(c) {
			return c
		}
	}
	return prev
}

// dispatch starts the next job on the core if it is free. An idle core
// with an empty run queue performs idle balancing: it steals a waiting
// unpinned thread from the most loaded core, the behaviour that makes the
// unpinned curve converge to the pinned one at high load (Section IV-E).
func (s *scheduler) dispatch(now clock.Cycles, core int) {
	c := &s.cores[core]
	if c.current != nil || now < c.busyUntil {
		return
	}
	if len(c.runq) == 0 {
		s.steal(core)
	}
	if len(c.runq) == 0 {
		return
	}
	th := c.runq[0]
	c.runq = c.runq[1:]
	if len(th.jobs) == 0 {
		// Spurious wake; thread goes idle.
		th.core = -1
		s.dispatch(now, core)
		return
	}
	c.quantumStart = now
	s.startJob(now, core, th)
}

// startJob begins the thread's next job on the core. The job's effective
// duration is stretched by the number of co-resident runnable threads —
// a processor-sharing approximation of time-slicing: two busy threads on
// one core each make progress at half speed, the core contention behind
// the memcached imbalance tail.
func (s *scheduler) startJob(now clock.Cycles, core int, th *Thread) {
	c := &s.cores[core]
	job := th.jobs[0]
	th.jobs = th.jobs[1:]
	th.running = true
	th.lastCore = core
	th.Busy += job.Cost
	share := clock.Cycles(1 + len(c.runq))
	c.current = th
	c.busyUntil = now + job.Cost*share
	n := s.node
	n.schedule(c.busyUntil, event{kind: evJobDone, id: uint16(core), arg: uint64(th.id), ref: n.park(callback{fn: job.Fn})})
}

// steal moves one waiting unpinned thread from the longest run queue onto
// the idle core.
func (s *scheduler) steal(core int) {
	victim, best := -1, 0
	for i := range s.cores {
		if i == core {
			continue
		}
		if n := len(s.cores[i].runq); n > best {
			// Only steal a queue that has an unpinned thread waiting.
			for _, th := range s.cores[i].runq {
				if th.pinned < 0 {
					victim, best = i, n
					break
				}
			}
		}
	}
	if victim < 0 {
		return
	}
	vq := s.cores[victim].runq
	for i, th := range vq {
		if th.pinned < 0 {
			s.cores[victim].runq = append(vq[:i:i], vq[i+1:]...)
			th.core = core
			s.cores[core].runq = append(s.cores[core].runq, th)
			return
		}
	}
}

// complete retires a finished job: run its callback fn, requeue the
// thread if it has more work, then let the core pick its next thread.
func (s *scheduler) complete(done clock.Cycles, core int, th *Thread, fn func(done clock.Cycles)) {
	c := &s.cores[core]
	c.current = nil
	th.running = false
	if fn != nil {
		fn(done)
	}
	if len(th.jobs) > 0 {
		quantum := s.node.costs.SchedQuantum
		if len(c.runq) == 0 || done-c.quantumStart < quantum {
			// Nobody waiting, or quantum not yet exhausted: keep the core
			// and run the next job back-to-back. A co-located thread can
			// therefore stall for a full quantum — the imbalance tail.
			s.pushIdle(done, core)
			s.startJob(done, core, th)
			return
		}
		// Quantum expired with others waiting: rotate to the tail.
		c.runq = append(c.runq, th)
	} else {
		th.core = -1
	}
	s.pushIdle(done, core)
	s.dispatch(done, core)
}

// pushIdle performs push migration: while this core has waiting unpinned
// threads and some other core is completely idle, move one over. Together
// with steal(), this models Linux's load balancing — at high load every
// thread ends up with its own core and the unpinned configuration behaves
// like the pinned one, as the paper observes.
func (s *scheduler) pushIdle(now clock.Cycles, core int) {
	c := &s.cores[core]
	for len(c.runq) > 0 {
		idle := -1
		for i := range s.cores {
			if i == core {
				continue
			}
			o := &s.cores[i]
			if o.current == nil && now >= o.busyUntil && len(o.runq) == 0 {
				idle = i
				break
			}
		}
		if idle < 0 {
			return
		}
		moved := false
		for i, th := range c.runq {
			if th.pinned < 0 {
				c.runq = append(c.runq[:i:i], c.runq[i+1:]...)
				th.core = idle
				s.cores[idle].runq = append(s.cores[idle].runq, th)
				s.dispatch(now, idle)
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}
