package core

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestDefaultCaseStudyConfig(t *testing.T) {
	cfg := DefaultCaseStudy()
	if cfg.Nodes != 1600 || cfg.Channels != 16 {
		t.Fatal("population")
	}
	if cfg.NodesPerChannel() != 100 {
		t.Fatalf("nodes per channel = %d", cfg.NodesPerChannel())
	}
	// 1 byte per 8 ms = 125 B/s; 120 bytes buffer in 960 ms.
	if d := cfg.BufferingDelay(120); d != 960*time.Millisecond {
		t.Fatalf("buffering delay = %v", d)
	}
	// Degenerate rate.
	cfg.DataBytesPerSecond = 0
	if cfg.BufferingDelay(120) != 0 {
		t.Fatal("zero-rate buffering")
	}
	cfg.Channels = 0
	if cfg.NodesPerChannel() != 1600 {
		t.Fatal("zero channels")
	}
}

func TestCaseStudyHeadlineNumbers(t *testing.T) {
	// The paper's §5 headline: 211 µW, 16% failure, 1.45 s delay at 42%
	// load. Reproduction tolerance: power within ±25%, failure within
	// [0.08, 0.25], load ≈0.43, delay in 1-2 s.
	p := testParams()
	p.Contention = DefaultParams().Contention // real Monte-Carlo source
	res, err := RunCaseStudy(p, DefaultCaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Load < 0.41 || res.Load > 0.45 {
		t.Errorf("load = %v, want ≈0.43", res.Load)
	}
	pw := res.AvgPower.MicroWatts()
	if pw < 211*0.75 || pw > 211*1.25 {
		t.Errorf("avg power = %.1f µW, want 211±25%%", pw)
	}
	if res.MeanPrFail < 0.08 || res.MeanPrFail > 0.25 {
		t.Errorf("PrFail = %v, want ≈0.16", res.MeanPrFail)
	}
	if res.MeanDelay < time.Second || res.MeanDelay > 2*time.Second {
		t.Errorf("delay = %v, want ≈1.45 s", res.MeanDelay)
	}
	if res.Coverage < 0.95 {
		t.Errorf("coverage = %v, want ≈1 for 55-95 dB with adaptation", res.Coverage)
	}
	t.Logf("case study: P=%.1fµW PrFail=%.3f delay=%v (paper: 211µW, 0.16, 1.45s)",
		pw, res.MeanPrFail, res.MeanDelay)
}

func TestCaseStudyBreakdownShape(t *testing.T) {
	// Fig. 9a: beacon ≈20%, contention ≈25%, transmit <50%, ack ≈15%.
	// Fig. 9b: shutdown 98.77%, idle 0.47%, TX 0.48%, RX 0.28%.
	p := testParams()
	p.Contention = DefaultParams().Contention
	res, err := RunCaseStudy(p, DefaultCaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	sh := res.Breakdown.Share()
	beacon, cont, tx, ack := sh[0], sh[1], sh[2], sh[3]
	if beacon < 0.10 || beacon > 0.30 {
		t.Errorf("beacon share = %v, paper ≈0.20", beacon)
	}
	if cont < 0.10 || cont > 0.35 {
		t.Errorf("contention share = %v, paper ≈0.25", cont)
	}
	if tx < 0.35 || tx >= 0.60 {
		t.Errorf("transmit share = %v, paper <0.50", tx)
	}
	if ack < 0.08 || ack > 0.25 {
		t.Errorf("ack share = %v, paper ≈0.15", ack)
	}
	fr := res.States.Fractions()
	if fr[0] < 0.975 || fr[0] > 0.995 {
		t.Errorf("shutdown fraction = %v, paper 0.9877", fr[0])
	}
	if fr[1] > 0.015 {
		t.Errorf("idle fraction = %v, paper 0.0047", fr[1])
	}
	if fr[2] > 0.008 {
		t.Errorf("rx fraction = %v, paper 0.0028", fr[2])
	}
	if fr[3] < 0.002 || fr[3] > 0.010 {
		t.Errorf("tx fraction = %v, paper 0.0048", fr[3])
	}
	t.Logf("phases: beacon=%.3f cont=%.3f tx=%.3f ack=%.3f; states: %v", beacon, cont, tx, ack, fr)
}

func TestCaseStudyPerNodeMonotonicity(t *testing.T) {
	p := testParams()
	res, err := RunCaseStudy(p, DefaultCaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerUW) != len(res.LossGrid) {
		t.Fatal("grid lengths")
	}
	// Power must be non-decreasing in path loss (higher TX levels).
	for i := 1; i < len(res.PowerUW); i++ {
		if res.PowerUW[i] < res.PowerUW[i-1]*0.999 {
			t.Fatalf("per-node power dropped at %v dB", res.LossGrid[i])
		}
	}
	// Levels non-decreasing.
	for i := 1; i < len(res.LevelUsed); i++ {
		if res.LevelUsed[i] < res.LevelUsed[i-1] {
			t.Fatalf("TX level dropped at %v dB", res.LossGrid[i])
		}
	}
}

func TestCaseStudyGridValidation(t *testing.T) {
	cfg := DefaultCaseStudy()
	cfg.LossGridPoints = 1
	if _, err := RunCaseStudy(testParams(), cfg); err == nil {
		t.Fatal("1-point grid accepted")
	}
}

func TestImprovementsMatchPaperDirections(t *testing.T) {
	// §5: transitions ×0.5 → ≈12% less power; scalable receiver → ≈15%
	// more. Require the right ordering and rough magnitude.
	p := testParams()
	p.Contention = DefaultParams().Contention
	res, err := EvaluateImprovements(p, DefaultCaseStudy(), DefaultImprovements())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	fast, scalable, both := res.Rows[0], res.Rows[1], res.Rows[2]
	if fast.Reduction < 0.04 || fast.Reduction > 0.25 {
		t.Errorf("fast transitions reduction = %v, paper ≈0.12", fast.Reduction)
	}
	if scalable.Reduction < 0.06 || scalable.Reduction > 0.30 {
		t.Errorf("scalable receiver reduction = %v, paper ≈0.15", scalable.Reduction)
	}
	if both.Reduction <= math.Max(fast.Reduction, scalable.Reduction) {
		t.Error("combined improvement must beat each alone")
	}
	for _, r := range res.Rows {
		if r.AvgPower >= res.Baseline {
			t.Errorf("%s did not reduce power", r.Name)
		}
	}
	t.Logf("baseline %.1fµW; fast -%.1f%%, scalable -%.1f%%, both -%.1f%% (paper: -12%%, -15%%)",
		res.Baseline.MicroWatts(), fast.Reduction*100, scalable.Reduction*100, both.Reduction*100)
}

func TestPacketSizeMonotoneDecrease(t *testing.T) {
	// Fig. 8: energy per bit decreases monotonically up to 123 bytes.
	p := testParams()
	sizes := []int{5, 10, 20, 40, 60, 80, 100, 120, 123}
	s, err := EnergyVsPayload(p, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] >= s.Y[i-1] {
			t.Fatalf("energy per bit rose from %dB to %dB: %v -> %v",
				sizes[i-1], sizes[i], s.Y[i-1], s.Y[i])
		}
	}
	opt, e, err := OptimalPayload(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 123 {
		t.Fatalf("optimal payload = %d, want 123 (the maximum)", opt)
	}
	if e <= 0 {
		t.Fatal("non-positive optimal energy")
	}
}

func TestEnergyVsPayloadValidates(t *testing.T) {
	p := testParams()
	p.NMax = 0
	if _, err := EnergyVsPayload(p, []int{10}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := AdaptedEnergySeriesCtx(context.Background(), p, []float64{60}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := EnergyVsPathLossCtx(context.Background(), p, []float64{60}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := OptimalTXLevel(p); err == nil {
		t.Fatal("invalid params accepted")
	}
}
