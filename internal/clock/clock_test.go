package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationRoundTrip(t *testing.T) {
	c := New(1 * GHz)
	check := func(n uint32) bool {
		// at 1 GHz, 1 cycle == 1 ns exactly, so the conversion is lossless
		return c.Duration(Cycles(n)) == time.Duration(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMicros(t *testing.T) {
	c := New(DefaultTargetClock)
	if got := c.Micros(6400); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("Micros(6400) = %g, want 2.0", got)
	}
	if got := c.CyclesInMicros(2.0); got != 6400 {
		t.Errorf("CyclesInMicros(2.0) = %d, want 6400", got)
	}
}

func TestNewPanicsOnBadFreq(t *testing.T) {
	for _, f := range []Hz{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", f)
				}
			}()
			New(f)
		}()
	}
}

func TestHzString(t *testing.T) {
	cases := []struct {
		f    Hz
		want string
	}{
		{3.2 * GHz, "3.2 GHz"},
		{3.4 * MHz, "3.4 MHz"},
		{500 * KHz, "500 KHz"},
		{42, "42 Hz"},
	}
	for _, tc := range cases {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("(%v).String() = %q, want %q", float64(tc.f), got, tc.want)
		}
	}
}

func TestSimRate(t *testing.T) {
	// The paper's headline: 3.2 GHz target simulated at 3.4 MHz is a ~941x
	// slowdown, "less than 1,000x over real-time".
	r := SimRate{
		TargetCycles: 3_400_000, // 3.4M cycles...
		Wall:         time.Second,
		TargetFreq:   DefaultTargetClock,
	}
	if got := r.EffectiveHz(); math.Abs(float64(got)-3.4e6) > 1 {
		t.Errorf("EffectiveHz = %v", got)
	}
	if got := r.Slowdown(); math.Abs(got-941.18) > 0.1 {
		t.Errorf("Slowdown = %g, want ~941.18", got)
	}
	if got := r.Slowdown(); got >= 1000 {
		t.Errorf("slowdown %g should be < 1000x per the paper", got)
	}
}

func TestSimRateZeroWall(t *testing.T) {
	r := SimRate{TargetCycles: 100, Wall: 0, TargetFreq: GHz}
	if r.EffectiveHz() != 0 || r.Slowdown() != 0 {
		t.Error("zero wall time should yield zero rate, not a division panic")
	}
}
