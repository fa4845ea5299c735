package battery

import (
	"math"
	"strings"
	"testing"
	"time"

	"dense802154/internal/units"
)

func TestLifetimeBasics(t *testing.T) {
	// 2430 J at 211 µW with 1%/yr self-discharge: ≈ 133 days.
	s := CoinCellCR2032()
	d, ok := s.Lifetime(211 * units.MicroWatt)
	if !ok {
		t.Fatal("no lifetime")
	}
	days := d.Hours() / 24
	if days < 100 || days > 160 {
		t.Fatalf("CR2032 at 211 µW lives %v days, want ≈133", days)
	}
}

func TestLifetimeScalesInversely(t *testing.T) {
	s := AACell()
	d1, _ := s.Lifetime(200 * units.MicroWatt)
	d2, _ := s.Lifetime(100 * units.MicroWatt)
	ratio := float64(d2) / float64(d1)
	// Self-discharge bends this slightly below 2.
	if ratio < 1.7 || ratio > 2.1 {
		t.Fatalf("halving load scaled lifetime by %v, want ≈2", ratio)
	}
}

func TestHarvesterSustainability(t *testing.T) {
	h := VibrationHarvester()
	if !h.Sustainable(90 * units.MicroWatt) {
		t.Error("90 µW must be sustainable on the 100 µW harvester")
	}
	if h.Sustainable(211 * units.MicroWatt) {
		t.Error("211 µW must not be sustainable — the paper's gap")
	}
	if h.Margin(211*units.MicroWatt) >= 0 {
		t.Error("margin must be negative at 211 µW")
	}
	d, ok := h.Lifetime(90 * units.MicroWatt)
	if !ok || d != time.Duration(math.MaxInt64) {
		t.Fatalf("sustainable load lifetime = (%v, %v), want indefinite", d, ok)
	}
	// A supply with no declared capacity models an unconstrained source:
	// there is no finite battery to exhaust, so even an overload reports
	// indefinite (Sustainable and Margin still expose the deficit).
	if d, ok := h.Lifetime(211 * units.MicroWatt); !ok || d != time.Duration(math.MaxInt64) {
		t.Fatalf("capacity-less overload lifetime = (%v, %v), want indefinite", d, ok)
	}
}

func TestHarvestedBattery(t *testing.T) {
	// Battery + harvester: only the net load drains the cell.
	s := CoinCellCR2032().WithHarvest(100 * units.MicroWatt)
	dPlain, _ := CoinCellCR2032().Lifetime(211 * units.MicroWatt)
	dBoost, _ := s.Lifetime(211 * units.MicroWatt)
	if dBoost <= dPlain {
		t.Fatal("harvester must extend battery life")
	}
	// Net 111 µW vs 211 µW: ≈ 1.9x.
	ratio := float64(dBoost) / float64(dPlain)
	if ratio < 1.6 || ratio > 2.2 {
		t.Fatalf("harvest boost ratio %v", ratio)
	}
}

func TestLifetimeEdgeCases(t *testing.T) {
	s := CoinCellCR2032()
	if _, ok := s.Lifetime(0); ok {
		t.Error("zero load must report !ok")
	}
	if _, ok := s.Lifetime(-1); ok {
		t.Error("negative load must report !ok")
	}
	// Tiny load beyond the 1e12 s guard: indefinite.
	d, ok := Supply{CapacityJ: 1e9}.Lifetime(1 * units.NanoWatt)
	if !ok || d != time.Duration(math.MaxInt64) {
		t.Errorf("immense lifetime must clamp to indefinite, got %v", d)
	}
}

// TestLifetimeDegenerateSupplies pins the divide-by-zero and non-finite
// corners: no input combination may surface a NaN-backed Duration, and
// supplies without a finite battery constraint (zero, negative or infinite
// capacity) always report an indefinite lifetime.
func TestLifetimeDegenerateSupplies(t *testing.T) {
	indefinite := time.Duration(math.MaxInt64)
	load := 211 * units.MicroWatt
	cases := []struct {
		name   string
		s      Supply
		load   units.Power
		wantD  time.Duration
		wantOK bool
	}{
		{"zero-capacity", Supply{}, load, indefinite, true},
		{"zero-capacity with self-discharge", Supply{SelfDischargePerYear: 0.02}, load, indefinite, true},
		{"negative capacity", Supply{CapacityJ: -5}, load, indefinite, true},
		{"infinite capacity", Supply{CapacityJ: math.Inf(1), SelfDischargePerYear: 0.01}, load, indefinite, true},
		{"NaN capacity", Supply{CapacityJ: math.NaN()}, load, indefinite, true},
		{"harvest covers load", Supply{CapacityJ: 10, Harvest: load}, load, indefinite, true},
		{"harvest exceeds load", Supply{Harvest: 2 * load}, load, indefinite, true},
		{"NaN load", CoinCellCR2032(), units.Power(math.NaN()), 0, false},
		{"infinite load", CoinCellCR2032(), units.Power(math.Inf(1)), 0, false},
		{"NaN self-discharge", Supply{CapacityJ: 2430, SelfDischargePerYear: math.NaN()}, load, indefinite, true},
	}
	for _, tc := range cases {
		d, ok := tc.s.Lifetime(tc.load)
		if ok != tc.wantOK || d != tc.wantD {
			t.Errorf("%s: Lifetime = (%v, %v), want (%v, %v)", tc.name, d, ok, tc.wantD, tc.wantOK)
		}
		if d < 0 {
			t.Errorf("%s: negative duration %v (NaN leak)", tc.name, d)
		}
	}
}

// TestSelfDischargeDrainConsistency: integrating CapacityJ at a constant
// load plus SelfDischargeDrain must land on the same instant Lifetime
// predicts — the contract per-node battery integrations rely on.
func TestSelfDischargeDrainConsistency(t *testing.T) {
	s := CoinCellCR2032()
	load := 211 * units.MicroWatt
	d, ok := s.Lifetime(load)
	if !ok {
		t.Fatal("no lifetime")
	}
	integrated := s.CapacityJ / float64(load+s.SelfDischargeDrain())
	if got := d.Seconds(); math.Abs(got-integrated) > 1 {
		t.Fatalf("Lifetime %v s vs integrated %v s", got, integrated)
	}
	if (Supply{}).SelfDischargeDrain() != 0 {
		t.Error("capacity-less supply must have zero self-discharge drain")
	}
}

func TestLifetimeString(t *testing.T) {
	if got := LifetimeString(time.Duration(math.MaxInt64)); got != "indefinite" {
		t.Errorf("indefinite: %q", got)
	}
	if got := LifetimeString(400 * 24 * time.Hour); !strings.Contains(got, "years") {
		t.Errorf("years: %q", got)
	}
	if got := LifetimeString(48 * time.Hour); !strings.Contains(got, "days") {
		t.Errorf("days: %q", got)
	}
	if got := LifetimeString(30 * time.Minute); !strings.Contains(got, "m") {
		t.Errorf("minutes: %q", got)
	}
}

func TestSupplyPresets(t *testing.T) {
	if CoinCellCR2032().CapacityJ < 2000 || CoinCellCR2032().CapacityJ > 3000 {
		t.Error("CR2032 capacity")
	}
	if AACell().CapacityJ < 12000 || AACell().CapacityJ > 15000 {
		t.Error("AA capacity")
	}
	if VibrationHarvester().Harvest != 100*units.MicroWatt {
		t.Error("harvester budget")
	}
}

// TestByName: every listed preset resolves to its constructor's supply,
// and nothing else resolves.
func TestByName(t *testing.T) {
	want := map[string]Supply{"cr2032": CoinCellCR2032(), "aa": AACell(), "harvester": VibrationHarvester()}
	names := Names()
	if len(names) != len(want) || names[0] != "cr2032" {
		t.Fatalf("Names() = %v, want the %d presets, cr2032 first", names, len(want))
	}
	for _, name := range names {
		if s, ok := ByName(name); !ok || s != want[name] {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", name, s, ok, want[name])
		}
	}
	for _, name := range []string{"", "CR2032", "fusion"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved", name)
		}
	}
}
