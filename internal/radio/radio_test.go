package radio

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dense802154/internal/units"
)

func almost(a, b units.Energy, tol float64) bool {
	return math.Abs(float64(a-b)) <= tol*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}

func TestCC2420SteadyPowers(t *testing.T) {
	c := CC2420()
	// Fig. 3: 80 nA, 396 µA, 19.6 mA at 1.8 V.
	if got := c.ShutdownPower.NanoWatts(); math.Abs(got-144) > 0.01 {
		t.Errorf("shutdown = %v nW, want 144", got)
	}
	if got := c.IdlePower.MicroWatts(); math.Abs(got-712.8) > 0.01 {
		t.Errorf("idle = %v µW, want 712.8", got)
	}
	if got := c.RXPower.MilliWatts(); math.Abs(got-35.28) > 0.001 {
		t.Errorf("rx = %v mW, want 35.28", got)
	}
	if c.ListenPower != c.RXPower {
		t.Error("stock radio listen power must equal RX power")
	}
}

func TestCC2420TXLevels(t *testing.T) {
	c := CC2420()
	if len(c.TXLevels) != 8 {
		t.Fatalf("TX levels = %d, want 8", len(c.TXLevels))
	}
	// Fig. 3 extremes: -25 dBm at 8.42 mA, 0 dBm at 17.04 mA.
	if c.TXLevels[0].DBm != -25 || c.TXLevels[7].DBm != 0 {
		t.Fatalf("level range: %v..%v", c.TXLevels[0].DBm, c.TXLevels[7].DBm)
	}
	if got := c.TXPowerAt(7).MilliWatts(); math.Abs(got-30.672) > 0.001 {
		t.Errorf("TX@0dBm = %v mW, want 30.672", got)
	}
	if got := c.TXPowerAt(0).MilliWatts(); math.Abs(got-15.156) > 0.001 {
		t.Errorf("TX@-25dBm = %v mW, want 15.156", got)
	}
	// Ascending in both dBm and current.
	for i := 1; i < len(c.TXLevels); i++ {
		if c.TXLevels[i].DBm <= c.TXLevels[i-1].DBm {
			t.Error("levels not ascending in dBm")
		}
		if c.TXLevels[i].CurrentA <= c.TXLevels[i-1].CurrentA {
			t.Error("levels not ascending in current")
		}
	}
}

func TestTransitionTable(t *testing.T) {
	c := CC2420()
	tr, ok := c.Transition(Shutdown, Idle)
	if !ok {
		t.Fatal("shutdown->idle must be allowed")
	}
	if tr.Duration != 970*time.Microsecond {
		t.Errorf("shutdown->idle duration = %v, want 970µs", tr.Duration)
	}
	// 970µs at 712.8µW = 691nJ (the paper's "691pJ" typo corrected).
	if !almost(tr.Energy, 691.4*units.NanoJoule, 0.01) {
		t.Errorf("shutdown->idle energy = %v, want ≈691nJ", tr.Energy)
	}
	tr, ok = c.Transition(Idle, RX)
	if !ok || tr.Duration != 194*time.Microsecond {
		t.Errorf("idle->rx = (%v,%v)", tr, ok)
	}
	// 194µs at 35.28mW = 6.84µJ (paper prints 6.63µJ from measurement).
	if !almost(tr.Energy, 6.84*units.MicroJoule, 0.01) {
		t.Errorf("idle->rx energy = %v, want ≈6.84µJ", tr.Energy)
	}
	// Worst-case rule: idle->TX charged at max TX level power.
	tr, _ = c.Transition(Idle, TX)
	if !almost(tr.Energy, units.Energy(30.672e-3*194e-6), 0.01) {
		t.Errorf("idle->tx energy = %v", tr.Energy)
	}
	// Shutdown->RX requires passing through idle: not direct.
	if _, ok := c.Transition(Shutdown, RX); ok {
		t.Error("shutdown->rx must not be direct")
	}
	if _, ok := c.Transition(Shutdown, TX); ok {
		t.Error("shutdown->tx must not be direct")
	}
	// Turnaround.
	tr, ok = c.Transition(RX, TX)
	if !ok || tr.Duration != 192*time.Microsecond {
		t.Errorf("rx->tx turnaround = (%v,%v)", tr, ok)
	}
	// Falling back to idle is free.
	tr, ok = c.Transition(RX, Idle)
	if !ok || tr.Duration != 0 || tr.Energy != 0 {
		t.Errorf("rx->idle = (%v,%v)", tr, ok)
	}
	// Out-of-range states.
	if _, ok := c.Transition(State(-1), Idle); ok {
		t.Error("negative state")
	}
	if _, ok := c.Transition(Idle, State(9)); ok {
		t.Error("overflow state")
	}
}

func TestLevelIndexFor(t *testing.T) {
	c := CC2420()
	cases := []struct {
		dbm  float64
		want int
		ok   bool
	}{
		{-30, 0, true}, // below the weakest: weakest suffices
		{-25, 0, true}, // exact
		{-20, 1, true}, // between -25 and -15
		{-15, 1, true}, // exact
		{-4, 5, true},  // between -5 and -3
		{0, 7, true},   // exact max
		{3, 7, false},  // beyond max: clamped, not ok
	}
	for _, cse := range cases {
		got, ok := c.LevelIndexFor(cse.dbm)
		if got != cse.want || ok != cse.ok {
			t.Errorf("LevelIndexFor(%v) = (%d,%v), want (%d,%v)", cse.dbm, got, ok, cse.want, cse.ok)
		}
	}
}

func TestStatePowerClamping(t *testing.T) {
	c := CC2420()
	if c.StatePower(TX, -5) != c.TXPowerAt(0) {
		t.Error("negative level index must clamp to 0")
	}
	if c.StatePower(TX, 99) != c.TXPowerAt(7) {
		t.Error("overflow level index must clamp to max")
	}
	if c.StatePower(State(42), 0) != 0 {
		t.Error("unknown state power must be 0")
	}
}

func TestWithTransitionScale(t *testing.T) {
	c := CC2420()
	fast := c.WithTransitionScale(0.5)
	orig, _ := c.Transition(Idle, RX)
	scaled, ok := fast.Transition(Idle, RX)
	if !ok {
		t.Fatal("scaled radio lost a transition")
	}
	if scaled.Duration != orig.Duration/2 {
		t.Errorf("scaled duration = %v, want %v", scaled.Duration, orig.Duration/2)
	}
	if !almost(scaled.Energy, orig.Energy/2, 1e-9) {
		t.Errorf("scaled energy = %v, want %v", scaled.Energy, orig.Energy/2)
	}
	// The original must be untouched.
	after, _ := c.Transition(Idle, RX)
	if after != orig {
		t.Error("WithTransitionScale mutated the receiver")
	}
	// Steady powers unchanged.
	if fast.RXPower != c.RXPower || fast.IdlePower != c.IdlePower {
		t.Error("steady powers must not change")
	}
}

func TestWithScalableReceiver(t *testing.T) {
	c := CC2420()
	sc := c.WithScalableReceiver(0.4)
	want := units.Power(float64(c.RXPower) * 0.4)
	if math.Abs(float64(sc.ListenPower-want)) > 1e-15 {
		t.Errorf("listen power = %v, want %v", sc.ListenPower, want)
	}
	if sc.RXPower != c.RXPower {
		t.Error("full RX power must not change")
	}
	if c.ListenPower != c.RXPower {
		t.Error("original mutated")
	}
}

func TestStateStrings(t *testing.T) {
	if Shutdown.String() != "shutdown" || Idle.String() != "idle" ||
		RX.String() != "rx" || TX.String() != "tx" {
		t.Fatal("state strings")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state string must be non-empty")
	}
}

// TestCC2420Fresh: CC2420 builds a new characterization on every call, so a
// caller may modify its own, while Baseline and ByName's baseline share one.
func TestCC2420Fresh(t *testing.T) {
	a, b := CC2420(), CC2420()
	if a == b || &a.TXLevels[0] == &b.TXLevels[0] {
		t.Fatal("CC2420 returned a shared characterization")
	}
	if a == Baseline() || Baseline() != Baseline() {
		t.Fatal("Baseline is not one shared characterization apart from CC2420's")
	}
	if r, ok := ByName(""); !ok || r != Baseline() {
		t.Fatal("ByName(\"\") does not resolve to Baseline")
	}
	if !reflect.DeepEqual(a, Baseline()) {
		t.Fatal("Baseline differs from CC2420")
	}
}
