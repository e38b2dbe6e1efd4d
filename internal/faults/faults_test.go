package faults

import (
	"bytes"
	"testing"

	"repro/internal/stats"
	"repro/internal/token"
)

func testTargets() []Target {
	return []Target{
		{Name: "server0", Ports: 1, Kind: NodeTarget},
		{Name: "server1", Ports: 1, Kind: NodeTarget},
		{Name: "tor0", Ports: 4, Kind: SwitchTarget},
	}
}

func chaosConfig(seed uint64) Config {
	cfg, err := Scenario("chaos", seed, 64_000_000)
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestScheduleDeterminism is the core contract: same seed, byte-identical
// schedule; different seed, different schedule; target order irrelevant.
func TestScheduleDeterminism(t *testing.T) {
	p1, err := Generate(chaosConfig(42), testTargets())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(chaosConfig(42), testTargets())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Encode(), p2.Encode()) {
		t.Fatal("same seed produced different schedules")
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("same seed produced different fingerprints")
	}

	// Reversed target order must not change the schedule.
	rev := testTargets()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	p3, err := Generate(chaosConfig(42), rev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Encode(), p3.Encode()) {
		t.Fatal("target order changed the schedule")
	}

	p4, err := Generate(chaosConfig(43), testTargets())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(p1.Encode(), p4.Encode()) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(p1.Events()) == 0 {
		t.Fatal("chaos scenario scheduled no events")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}, []Target{{Name: "", Ports: 1}}); err == nil {
		t.Error("empty target name accepted")
	}
	if _, err := Generate(Config{}, []Target{{Name: "a", Ports: 0}}); err == nil {
		t.Error("zero-port target accepted")
	}
	if _, err := Generate(Config{}, []Target{{Name: "a", Ports: 1}, {Name: "a", Ports: 1}}); err == nil {
		t.Error("duplicate target accepted")
	}
}

// planWith builds a plan with a single hand-written event for semantic
// tests.
func planWith(ev Event) *Plan {
	p := &Plan{
		cfg:        Config{},
		byEndpoint: map[string][]Event{},
		stalls:     map[string][]Event{},
		counters:   stats.NewCounters(),
	}
	p.events = []Event{ev}
	if ev.Kind == PortStall {
		p.stalls[ev.Target] = []Event{ev}
	} else {
		p.byEndpoint[ev.Target] = []Event{ev}
	}
	return p
}

func fullBatch(n int) *token.Batch {
	b := token.NewBatch(n)
	for i := 0; i < n; i++ {
		b.Put(i, token.Token{Data: uint64(0x100 + i), Valid: true})
	}
	return b
}

func TestLinkFlapDropsWindow(t *testing.T) {
	p := planWith(Event{Kind: LinkFlap, Target: "n0", Port: 0, Start: 104, End: 108})
	b := fullBatch(16)
	p.FilterInput("n0", 0, 100, b) // batch covers [100, 116)
	for i := 0; i < 16; i++ {
		c := 100 + i
		got := b.At(i).Valid
		want := c < 104 || c >= 108
		if got != want {
			t.Errorf("cycle %d: token present=%v, want %v", c, got, want)
		}
	}
	// Wrong port: untouched.
	b2 := fullBatch(16)
	p.FilterInput("n0", 1, 100, b2)
	if b2.Occupied() != 16 {
		t.Error("flap applied to wrong port")
	}
	// Other endpoint: untouched.
	b3 := fullBatch(16)
	p.FilterInput("n1", 0, 100, b3)
	if b3.Occupied() != 16 {
		t.Error("flap applied to wrong endpoint")
	}
	if got := p.Counters().Get("faults.injected.flap-dropped-tokens"); got != 4 {
		t.Errorf("dropped counter = %d, want 4", got)
	}
}

func TestCorruptMask(t *testing.T) {
	p := planWith(Event{Kind: Corrupt, Target: "n0", Port: 0, Start: 0, End: 2, Mask: 0xff})
	b := fullBatch(4)
	p.FilterInput("n0", 0, 0, b)
	if got := b.At(0).Data; got != (0x100 ^ 0xff) {
		t.Errorf("cycle 0 data = %#x, want corrupted", got)
	}
	if got := b.At(2).Data; got != 0x102 {
		t.Errorf("cycle 2 data = %#x, want untouched", got)
	}
}

func TestNodeFreezeSilencesBothDirections(t *testing.T) {
	p := planWith(Event{Kind: NodeFreeze, Target: "n0", Port: -1, Start: 0, End: 100})
	in := fullBatch(8)
	p.FilterInput("n0", 0, 0, in)
	if !in.IsEmpty() {
		t.Error("frozen node still receives tokens")
	}
	out := fullBatch(8)
	p.FilterOutput("n0", 0, 0, out)
	if !out.IsEmpty() {
		t.Error("frozen node still emits tokens")
	}
	// After the freeze window, traffic flows again.
	after := fullBatch(8)
	p.FilterInput("n0", 0, 200, after)
	if after.Occupied() != 8 {
		t.Error("freeze applied outside its window")
	}
}

func TestStallFunc(t *testing.T) {
	p := planWith(Event{Kind: PortStall, Target: "tor0", Port: 2, Start: 50, End: 60})
	fn := p.StallFunc("tor0")
	if fn == nil {
		t.Fatal("no stall func for switch with scheduled stall")
	}
	if fn(2, 49) || !fn(2, 50) || !fn(2, 59) || fn(2, 60) {
		t.Error("stall window boundaries wrong")
	}
	if fn(1, 55) {
		t.Error("stall applied to wrong port")
	}
	if p.StallFunc("other") != nil {
		t.Error("stall func returned for switch without stalls")
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := Scenarios()
	if len(names) == 0 {
		t.Fatal("no scenarios registered")
	}
	for _, n := range names {
		cfg, err := Scenario(n, 1, 0)
		if err != nil {
			t.Fatalf("scenario %q: %v", n, err)
		}
		if !cfg.Enabled() {
			t.Errorf("scenario %q injects nothing", n)
		}
	}
	if cfg, err := Scenario("", 1, 0); err != nil || cfg.Enabled() {
		t.Error("empty scenario should be a disabled config")
	}
	if _, err := Scenario("no-such", 1, 0); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestEventsWithinHorizon checks no event starts at or past the horizon.
func TestEventsWithinHorizon(t *testing.T) {
	cfg := chaosConfig(7)
	cfg.Horizon = 10_000_000
	p, err := Generate(cfg, testTargets())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range p.Events() {
		if ev.Start >= cfg.Horizon {
			t.Fatalf("event %v starts past horizon %d", ev, cfg.Horizon)
		}
		if ev.End <= ev.Start {
			t.Fatalf("event %v has empty window", ev)
		}
		if ev.Start < 0 {
			t.Fatalf("event %v starts before time zero", ev)
		}
	}
}
