package core

import (
	"context"
	"math"
	"testing"

	"dense802154/internal/channel"
	"dense802154/internal/contention"
	"dense802154/internal/radio"
)

func TestOptimalLevelGrowsWithLoss(t *testing.T) {
	p := testParams()
	prev := -1
	for _, a := range []float64{45, 60, 75, 85, 90} {
		p.PathLossDB = a
		lvl, err := OptimalTXLevel(p)
		if err != nil {
			t.Fatal(err)
		}
		if lvl < prev {
			t.Fatalf("optimal level decreased (%d -> %d) as loss grew to %v", prev, lvl, a)
		}
		prev = lvl
	}
	// Extremes: weakest level at short range, strongest beyond ~88 dB.
	p.PathLossDB = 45
	lo, _ := OptimalTXLevel(p)
	if lo != 0 {
		t.Errorf("optimal level at 45 dB = %d, want 0 (-25 dBm)", lo)
	}
	p.PathLossDB = 92
	hi, _ := OptimalTXLevel(p)
	if hi != p.Radio.MaxTXLevel() {
		t.Errorf("optimal level at 92 dB = %d, want max", hi)
	}
}

func TestOptimalLevelOutOfRangeFallsBackToMax(t *testing.T) {
	p := testParams()
	p.PathLossDB = 140
	lvl, err := OptimalTXLevel(p)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != p.Radio.MaxTXLevel() {
		t.Fatalf("out-of-range fallback level = %d, want max", lvl)
	}
}

func TestEnergyVsPathLossShape(t *testing.T) {
	p := testParams()
	losses := channel.LossGrid(40, 95, 56)
	curves, err := EnergyVsPathLossCtx(context.Background(), p, losses)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 8 {
		t.Fatalf("curves = %d, want 8 levels", len(curves))
	}
	// At low loss the weakest level must be cheapest; at 90 dB the
	// strongest must win.
	idx0 := 0 // loss 40
	if curves[0].EnergyJ[idx0] >= curves[7].EnergyJ[idx0] {
		t.Error("weak level not cheapest at 40 dB")
	}
	idx90 := 50 // loss 90
	if curves[7].EnergyJ[idx90] >= curves[0].EnergyJ[idx90] {
		t.Error("strong level not cheapest at 90 dB")
	}
}

func TestThresholdsOrderedAndLoadIndependent(t *testing.T) {
	p := testParams()
	losses := channel.LossGrid(40, 95, 111)
	th1, err := ThresholdsCtx(context.Background(), p, losses)
	if err != nil {
		t.Fatal(err)
	}
	if len(th1) < 4 {
		t.Fatalf("only %d thresholds found", len(th1))
	}
	for _, th := range th1 {
		if th.LossDB < 40 || th.LossDB > 95 {
			t.Errorf("threshold %v outside grid", th)
		}
		if th.String() == "" {
			t.Error("empty threshold string")
		}
	}
	// Paper: "the thresholds are independent of the network load".
	// Compare against a much busier contention environment.
	q := p
	q.Load = 0.8
	q.Contention = fixedSource{contention.Stats{
		Tcont: 12e6, NCCA: 5, PrCF: 0.4, PrCol: 0.15,
	}}
	th2, err := ThresholdsCtx(context.Background(), q, losses)
	if err != nil {
		t.Fatal(err)
	}
	if len(th1) != len(th2) {
		t.Fatalf("threshold count changed with load: %d vs %d", len(th1), len(th2))
	}
	for i := range th1 {
		if math.Abs(th1[i].LossDB-th2[i].LossDB) > 1.5 {
			t.Errorf("threshold %d moved with load: %.2f vs %.2f dB",
				i, th1[i].LossDB, th2[i].LossDB)
		}
	}
}

func TestAdaptationSavings(t *testing.T) {
	p := testParams()
	// Paper: up to 40% savings at short range; our accounting yields
	// ≈25-35% (EXPERIMENTS.md records the exact figure).
	s, err := AdaptationSavings(p, 55)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.15 || s > 0.5 {
		t.Fatalf("savings at 55 dB = %v, want substantial", s)
	}
	// At the edge of range adaptation cannot help.
	s90, err := AdaptationSavings(p, 90)
	if err != nil {
		t.Fatal(err)
	}
	if s90 > 0.02 {
		t.Fatalf("savings at 90 dB = %v, want ≈0", s90)
	}
}

func TestAdaptedEnergySeriesMonotoneUpToEdge(t *testing.T) {
	p := testParams()
	losses := channel.LossGrid(45, 88, 44)
	s, err := AdaptedEnergySeriesCtx(context.Background(), p, losses)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 44 {
		t.Fatalf("series length %d", s.Len())
	}
	// Energy per bit grows (weakly) with path loss inside the efficient
	// region; allow small numerical wiggle at level switch points.
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1]*0.98 {
			t.Fatalf("adapted energy dropped sharply at %v dB: %v -> %v",
				s.X[i], s.Y[i-1], s.Y[i])
		}
	}
	// The paper's span: 135 nJ/bit at ≤55 dB to 220 nJ/bit at 88 dB —
	// our accounting lands slightly higher but must preserve the ratio.
	first, last := s.Y[4], s.Y[s.Len()-1] // ~49 dB and 88 dB
	ratio := last / first
	if ratio < 1.2 || ratio > 2.2 {
		t.Fatalf("88dB/50dB energy ratio = %v, paper has ≈1.6", ratio)
	}
}

func TestThresholdsWithRealRadioOrdering(t *testing.T) {
	// The CC2420 levels -7 and -5 dBm are nearly equal in current
	// (12.17 vs 12.27 mA): their crossing may sit out of order; all
	// others must ascend.
	p := testParams()
	p.Radio = radio.CC2420()
	losses := channel.LossGrid(40, 95, 111)
	ths, err := ThresholdsCtx(context.Background(), p, losses)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for i := 1; i < len(ths); i++ {
		if ths[i].LossDB < ths[i-1].LossDB-0.5 {
			violations++
		}
	}
	if violations > 1 {
		t.Fatalf("%d threshold-order violations, want ≤1 (the -7/-5 dBm pair)", violations)
	}
}
