package switchmodel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/snapshot/snaptest"
	"repro/internal/token"
)

// timedToken is one token at an absolute target cycle.
type timedToken struct {
	cycle clock.Cycles
	tok   token.Token
}

// splitCase is one generated scenario: a switch configuration, an optional
// stall hook and a per-port ingress stream over [0, horizon).
type splitCase struct {
	cfg     Config
	stall   func(port int, cycle clock.Cycles) bool
	horizon int
	in      [][]timedToken
}

func splitMAC(p int) ethernet.MAC { return ethernet.MAC(0x0200_0000_0001) + ethernet.MAC(p) }

// newSplitCase derives a scenario from seed. Frames are unicast to a known
// port, broadcast, unknown-destination (flooded) or addressed to the
// sender's own port (unroutable). Output buffers keep their 512 KiB
// default, far above what one horizon can queue, so no packet is ever
// dropped for a full buffer.
func newSplitCase(t *testing.T, seed int64, stall, stale bool) splitCase {
	rng := rand.New(rand.NewSource(seed))
	c := splitCase{
		cfg: Config{
			Name:             "split",
			Ports:            2 + rng.Intn(4),
			SwitchingLatency: clock.Cycles(1 + rng.Intn(16)),
		},
		horizon: 256 + rng.Intn(1024),
	}
	if stale {
		c.cfg.MaxReleaseDelay = clock.Cycles(1 + rng.Intn(40))
	}
	if stall {
		period := clock.Cycles(8 + rng.Intn(120))
		k := 1 + clock.Cycles(rng.Intn(int(period)))
		mask := 1 + rng.Intn(1<<c.cfg.Ports-1)
		c.stall = func(port int, cycle clock.Cycles) bool {
			return mask&(1<<port) != 0 && (cycle+clock.Cycles(port))%period < k
		}
	}
	maxGap := 1 + rng.Intn(200)
	c.in = make([][]timedToken, c.cfg.Ports)
	for p := range c.in {
		at := clock.Cycles(rng.Intn(maxGap))
		for int(at) < c.horizon {
			var dst ethernet.MAC
			switch rng.Intn(6) {
			case 0:
				dst = ethernet.Broadcast
			case 1:
				dst = ethernet.MAC(0xdead_0000) + ethernet.MAC(rng.Intn(4))
			case 2:
				dst = splitMAC(p)
			default:
				dst = splitMAC(rng.Intn(c.cfg.Ports))
			}
			flits := mkFrameFlits(t, dst, splitMAC(p)|0x1000, rng.Intn(80))
			for i, f := range flits {
				if int(at) >= c.horizon {
					break // the frame stays a partial ingress assembly
				}
				c.in[p] = append(c.in[p], timedToken{at, token.Token{Data: f, Valid: true, Last: i == len(flits)-1}})
				at++
				if rng.Intn(4) == 0 {
					at += clock.Cycles(rng.Intn(3))
				}
			}
			at += clock.Cycles(rng.Intn(maxGap))
		}
	}
	return c
}

// splitRun is everything a run exposes: egress tokens by port at absolute
// cycles, the final counters and the final checkpoint bytes.
type splitRun struct {
	out   [][]timedToken
	stats Stats
	save  []byte
}

// run feeds the case's ingress stream through a fresh switch in windows of
// the given sizes, which must sum to the horizon.
func (c splitCase) run(t *testing.T, windows []int) splitRun {
	sw := New(c.cfg)
	for p := 0; p < c.cfg.Ports; p++ {
		sw.MACTable().Set(splitMAC(p), p)
	}
	sw.SetStall(c.stall)
	res := splitRun{out: make([][]timedToken, c.cfg.Ports)}
	in := make([]*token.Batch, c.cfg.Ports)
	out := make([]*token.Batch, c.cfg.Ports)
	next := make([]int, c.cfg.Ports)
	for p := range in {
		in[p], out[p] = token.NewBatch(1), token.NewBatch(1)
	}
	start := clock.Cycles(0)
	for _, n := range windows {
		end := start + clock.Cycles(n)
		for p := range in {
			in[p].Reset(n)
			out[p].Reset(n)
			for ; next[p] < len(c.in[p]) && c.in[p][next[p]].cycle < end; next[p]++ {
				tt := c.in[p][next[p]]
				in[p].Put(int(tt.cycle-start), tt.tok)
			}
		}
		sw.TickBatch(n, in, out)
		for p := range out {
			out[p].Each(func(offset int, tok token.Token) {
				res.out[p] = append(res.out[p], timedToken{start + clock.Cycles(offset), tok})
			})
		}
		start = end
	}
	if int(start) != c.horizon {
		t.Fatalf("windows cover %d cycles, horizon is %d", start, c.horizon)
	}
	res.stats = sw.Stats()
	res.save = snaptest.Save(t, sw)
	return res
}

// FuzzSwitchWindowSplit checks that the switch is invariant under the
// host's window size: one ingress stream fed as a single window, as
// 1-cycle windows and as a random split must produce the same egress
// tokens, the same Stats and the same Save bytes. Stale drops and stall
// hooks are part of the space; buffer-full drops are not (every case
// asserts none happened).
func FuzzSwitchWindowSplit(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, false, false)
		f.Add(seed, true, false)
		f.Add(seed, false, true)
		f.Add(seed, true, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, stall, stale bool) {
		c := newSplitCase(t, seed, stall, stale)
		want := c.run(t, []int{c.horizon})
		if want.stats.DropsBufFull != 0 {
			t.Fatalf("whole window dropped %d packets on a full buffer", want.stats.DropsBufFull)
		}
		ones := make([]int, c.horizon)
		for i := range ones {
			ones[i] = 1
		}
		rng := rand.New(rand.NewSource(^seed))
		var random []int
		for left := c.horizon; left > 0; {
			n := min(left, 1+rng.Intn(1+rng.Intn(300)))
			random = append(random, n)
			left -= n
		}
		for _, split := range []struct {
			name    string
			windows []int
		}{{"1-cycle", ones}, {"random", random}} {
			got := c.run(t, split.windows)
			for p := range want.out {
				if len(got.out[p]) != len(want.out[p]) {
					t.Fatalf("%s windows, port %d: %d egress tokens, whole window %d", split.name, p, len(got.out[p]), len(want.out[p]))
				}
				for i := range want.out[p] {
					if got.out[p][i] != want.out[p][i] {
						t.Fatalf("%s windows, port %d token %d: %+v, whole window %+v", split.name, p, i, got.out[p][i], want.out[p][i])
					}
				}
			}
			if got.stats != want.stats {
				t.Fatalf("%s windows: stats diverged:\n  got   %+v\n  whole %+v", split.name, got.stats, want.stats)
			}
			if !bytes.Equal(got.save, want.save) {
				t.Fatalf("%s windows: Save bytes differ from the whole window's", split.name)
			}
		}
	})
}
