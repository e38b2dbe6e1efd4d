// Package faults is the seed-deterministic fault-injection subsystem.
//
// FireSim's token protocol guarantees that a distributed simulation is
// cycle-exact and deterministic (Section III-B2). That same property makes
// failure testing unusually powerful: if faults are injected as a pure
// function of (endpoint, port, target cycle), an entire failure scenario —
// link flaps, packet loss bursts, payload corruption, switch port stalls,
// frozen nodes — replays bit-identically from a single integer seed.
//
// A Plan is a pre-generated schedule of fault events over target time. It
// plugs into the simulation at two points:
//
//   - fame.Runner, via the fame.Injector hook (Plan implements it):
//     events filter the token batches crossing endpoint boundaries;
//   - switchmodel.Switch, via SetStall: PortStall events suppress egress.
//
// Because the schedule is fixed before the first cycle runs and every
// lookup is keyed on target time only, Run and RunParallel — and two
// distributed halves of the same topology — all observe the same faults at
// the same target cycles. Two runs with the same Config produce
// byte-identical schedules (see Encode) and identical post-fault cycle
// counts; this is asserted by tests in this package and in manager.
package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/stats"
	"repro/internal/token"
)

// Kind enumerates the fault classes the subsystem can inject.
type Kind uint8

const (
	// LinkFlap drops every token arriving on one port for the event
	// window, modeling a link that goes dark (optical flap, bad cable).
	LinkFlap Kind = iota
	// PacketDrop drops valid tokens arriving on one port for the window,
	// modeling bursty loss. Dropping mid-packet flits leaves the frame
	// malformed; receivers drop malformed frames silently, like hardware.
	PacketDrop
	// Corrupt XORs a mask into token payloads on one port for the window,
	// modeling bit errors. Corrupt frames fail checksum/parse at the
	// receiver or misroute at the switch.
	Corrupt
	// PortStall freezes one switch egress port for the window; traffic
	// backs up into the output buffer and overflows surface as the
	// switch's ordinary congestion drops.
	PortStall
	// NodeFreeze halts one node for the window: it emits nothing and its
	// arriving tokens are discarded, modeling a hung or crashed host that
	// later recovers.
	NodeFreeze
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case PacketDrop:
		return "packet-drop"
	case Corrupt:
		return "corrupt"
	case PortStall:
		return "port-stall"
	case NodeFreeze:
		return "node-freeze"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Burst parameterises one fault class: how often bursts start and how long
// they last, per target. Zero MeanEvery disables the class.
type Burst struct {
	// MeanEvery is the mean gap in target cycles between burst starts on
	// one target (gaps are drawn uniformly from [1, 2*MeanEvery]).
	MeanEvery clock.Cycles
	// MeanDuration is the mean burst length in target cycles (drawn
	// uniformly from [1, 2*MeanDuration]).
	MeanDuration clock.Cycles
}

func (b Burst) enabled() bool { return b.MeanEvery > 0 }

// DefaultHorizon bounds generated schedules when Config.Horizon is zero:
// 32M cycles = 10 ms of target time at 3.2 GHz.
const DefaultHorizon clock.Cycles = 32_000_000

// DefaultCorruptMask flips one bit in the MAC header region and one in the
// payload region of a flit, enough to misroute or fail parsing.
const DefaultCorruptMask uint64 = 1<<63 | 1<<5

// Config describes a fault scenario. The zero value injects nothing.
type Config struct {
	// Scenario is a display name (set by the registry; free-form
	// otherwise).
	Scenario string
	// Seed drives all schedule randomness. Identical Config (including
	// Seed) over identical targets yields a byte-identical schedule.
	Seed uint64
	// Horizon bounds the schedule: no event starts at or after it.
	// Zero means DefaultHorizon.
	Horizon clock.Cycles

	// Per-class burst processes.
	LinkFlap   Burst
	PacketDrop Burst
	Corrupt    Burst
	PortStall  Burst
	NodeFreeze Burst

	// CorruptMask is XORed into payloads by Corrupt events (zero means
	// DefaultCorruptMask).
	CorruptMask uint64
}

// Enabled reports whether the config injects any faults at all.
func (c Config) Enabled() bool {
	return c.LinkFlap.enabled() || c.PacketDrop.enabled() || c.Corrupt.enabled() ||
		c.PortStall.enabled() || c.NodeFreeze.enabled()
}

// TargetKind distinguishes injection targets.
type TargetKind uint8

const (
	// NodeTarget is a server blade (link faults on its NIC port, freezes).
	NodeTarget TargetKind = iota
	// SwitchTarget is a switch model (link faults and egress stalls on its
	// ports).
	SwitchTarget
)

// Target is one endpoint faults can be scheduled against. Name must match
// the endpoint name registered with the fame.Runner.
type Target struct {
	Name  string
	Ports int
	Kind  TargetKind
}

// Event is one scheduled fault: Kind applies to Target (and Port, for
// port-scoped kinds; Port is -1 for NodeFreeze) over cycles [Start, End).
type Event struct {
	Kind   Kind
	Target string
	Port   int
	Start  clock.Cycles
	End    clock.Cycles
	Mask   uint64 // corruption mask; zero except for Corrupt events
}

func (e Event) String() string {
	port := fmt.Sprintf("port %d", e.Port)
	if e.Port < 0 {
		port = "all ports"
	}
	return fmt.Sprintf("%s %s %s [%d, %d)", e.Kind, e.Target, port, e.Start, e.End)
}

// overlaps reports whether the event intersects [start, end).
func (e Event) overlaps(start, end clock.Cycles) bool {
	return e.Start < end && start < e.End
}

// splitmix64 is the schedule PRNG: tiny, integer-only (no libm, so the
// schedule is bit-stable across platforms), and seedable per (target,
// kind) stream so one target's schedule does not depend on how many other
// targets exist.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform draws from [1, 2*mean] (mean+0.5 expectation) without floats.
func (s *splitmix64) uniform(mean clock.Cycles) clock.Cycles {
	if mean <= 0 {
		return 1
	}
	return 1 + clock.Cycles(s.next()%uint64(2*mean))
}

func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Plan is a generated, immutable fault schedule plus runtime counters.
// It implements fame.Injector; install it with Runner.SetInjector and wire
// switches with StallFunc. All lookups are read-only and safe for the
// parallel scheduler's per-endpoint goroutines.
type Plan struct {
	cfg    Config
	events []Event
	// byEndpoint indexes batch-filter events (everything except
	// PortStall) per target, sorted by Start.
	byEndpoint map[string][]Event
	// stalls indexes PortStall events per switch, sorted by Start.
	stalls   map[string][]Event
	counters *stats.Counters
}

// Generate builds the deterministic schedule for cfg over targets. Target
// order does not matter: each (target, kind) pair gets an independent PRNG
// stream seeded from cfg.Seed and the target's name.
func Generate(cfg Config, targets []Target) (*Plan, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	if cfg.CorruptMask == 0 {
		cfg.CorruptMask = DefaultCorruptMask
	}
	seen := make(map[string]bool, len(targets))
	for _, tg := range targets {
		if tg.Name == "" {
			return nil, fmt.Errorf("faults: target with empty name")
		}
		if tg.Ports <= 0 {
			return nil, fmt.Errorf("faults: target %q has %d ports", tg.Name, tg.Ports)
		}
		if seen[tg.Name] {
			return nil, fmt.Errorf("faults: duplicate target %q", tg.Name)
		}
		seen[tg.Name] = true
	}

	p := &Plan{
		cfg:        cfg,
		byEndpoint: make(map[string][]Event),
		stalls:     make(map[string][]Event),
		counters:   stats.NewCounters(),
	}

	type class struct {
		kind  Kind
		burst Burst
	}
	for _, tg := range targets {
		classes := []class{
			{LinkFlap, cfg.LinkFlap},
			{PacketDrop, cfg.PacketDrop},
			{Corrupt, cfg.Corrupt},
		}
		switch tg.Kind {
		case NodeTarget:
			classes = append(classes, class{NodeFreeze, cfg.NodeFreeze})
		case SwitchTarget:
			classes = append(classes, class{PortStall, cfg.PortStall})
		}
		for _, cl := range classes {
			if !cl.burst.enabled() {
				continue
			}
			prng := splitmix64(cfg.Seed ^ hashName(tg.Name) ^ (uint64(cl.kind)+1)*0xa24baed4963ee407)
			for t := prng.uniform(cl.burst.MeanEvery); t < cfg.Horizon; t += prng.uniform(cl.burst.MeanEvery) {
				ev := Event{
					Kind:   cl.kind,
					Target: tg.Name,
					Start:  t,
					End:    t + prng.uniform(cl.burst.MeanDuration),
					Port:   -1,
				}
				if cl.kind != NodeFreeze {
					ev.Port = int(prng.next() % uint64(tg.Ports))
				}
				if cl.kind == Corrupt {
					ev.Mask = cfg.CorruptMask
				}
				p.events = append(p.events, ev)
			}
		}
	}
	sort.Slice(p.events, func(i, j int) bool {
		a, b := p.events[i], p.events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Kind < b.Kind
	})
	for _, ev := range p.events {
		if ev.Kind == PortStall {
			p.stalls[ev.Target] = append(p.stalls[ev.Target], ev)
		} else {
			p.byEndpoint[ev.Target] = append(p.byEndpoint[ev.Target], ev)
		}
		p.counters.Add("faults.scheduled."+ev.Kind.String(), 1)
	}
	return p, nil
}

// Events returns a copy of the full schedule in deterministic order.
func (p *Plan) Events() []Event {
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// Counters exposes the runtime injection counters (tokens dropped,
// corrupted, and so on).
func (p *Plan) Counters() *stats.Counters { return p.counters }

// Encode serialises the schedule to a canonical byte string. Two runs with
// the same Config and targets produce identical bytes — the determinism
// contract tests assert on this.
func (p *Plan) Encode() []byte {
	var buf []byte
	var scratch [8]byte
	putU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	for _, ev := range p.events {
		buf = append(buf, byte(ev.Kind))
		putU64(uint64(len(ev.Target)))
		buf = append(buf, ev.Target...)
		putU64(uint64(int64(ev.Port)))
		putU64(uint64(ev.Start))
		putU64(uint64(ev.End))
		putU64(ev.Mask)
	}
	return buf
}

// Fingerprint hashes the canonical schedule encoding to a compact value
// for logs and cross-host comparison.
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(p.Encode())
	return h.Sum64()
}

// String summarises the plan for reports.
func (p *Plan) String() string {
	var b strings.Builder
	name := p.cfg.Scenario
	if name == "" {
		name = "custom"
	}
	fmt.Fprintf(&b, "fault plan %q: seed=%d horizon=%d events=%d fingerprint=%016x",
		name, p.cfg.Seed, p.cfg.Horizon, len(p.events), p.Fingerprint())
	return b.String()
}

// FilterInput implements fame.Injector: apply link flaps, packet drops,
// corruption, and freeze-side input discard to a batch arriving at the
// named endpoint.
func (p *Plan) FilterInput(endpoint string, port int, start clock.Cycles, b *token.Batch) {
	evs := p.byEndpoint[endpoint]
	if len(evs) == 0 || b.IsEmpty() {
		return
	}
	end := start + clock.Cycles(b.N)
	for i := range evs {
		ev := &evs[i]
		if ev.Start >= end {
			break // events are sorted by Start
		}
		if !ev.overlaps(start, end) {
			continue
		}
		switch ev.Kind {
		case LinkFlap:
			if ev.Port == port {
				p.dropWindow(b, start, ev, "faults.injected.flap-dropped-tokens")
			}
		case PacketDrop:
			if ev.Port == port {
				p.dropWindow(b, start, ev, "faults.injected.dropped-tokens")
			}
		case Corrupt:
			if ev.Port == port {
				n := 0
				b.Mutate(func(offset int, tok token.Token) token.Token {
					c := start + clock.Cycles(offset)
					if c >= ev.Start && c < ev.End {
						tok.Data ^= ev.Mask
						n++
					}
					return tok
				})
				if n > 0 {
					p.counters.Add("faults.injected.corrupted-tokens", uint64(n))
				}
			}
		case NodeFreeze:
			p.dropWindow(b, start, ev, "faults.injected.freeze-dropped-tokens")
		}
	}
}

// FilterOutput implements fame.Injector: a frozen node emits nothing.
func (p *Plan) FilterOutput(endpoint string, port int, start clock.Cycles, b *token.Batch) {
	evs := p.byEndpoint[endpoint]
	if len(evs) == 0 || b.IsEmpty() {
		return
	}
	end := start + clock.Cycles(b.N)
	for i := range evs {
		ev := &evs[i]
		if ev.Start >= end {
			break
		}
		if ev.Kind != NodeFreeze || !ev.overlaps(start, end) {
			continue
		}
		p.dropWindow(b, start, ev, "faults.injected.freeze-suppressed-tokens")
	}
}

// dropWindow removes every token whose absolute cycle falls inside ev.
func (p *Plan) dropWindow(b *token.Batch, start clock.Cycles, ev *Event, counter string) {
	before := b.Occupied()
	b.Filter(func(offset int, tok token.Token) bool {
		c := start + clock.Cycles(offset)
		return c < ev.Start || c >= ev.End
	})
	if dropped := before - b.Occupied(); dropped > 0 {
		p.counters.Add(counter, uint64(dropped))
	}
}

// StallFunc returns the stall hook for the named switch (for
// switchmodel.Switch.SetStall), or nil when the plan schedules no stalls
// there.
func (p *Plan) StallFunc(switchName string) func(port int, cycle clock.Cycles) bool {
	evs := p.stalls[switchName]
	if len(evs) == 0 {
		return nil
	}
	return func(port int, cycle clock.Cycles) bool {
		for i := range evs {
			ev := &evs[i]
			if ev.Start > cycle {
				return false // sorted by Start
			}
			if ev.Port == port && cycle < ev.End {
				return true
			}
		}
		return false
	}
}
