package dense802154_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dense802154"
)

func TestFacadeEvaluate(t *testing.T) {
	p := dense802154.DefaultParams()
	m, err := dense802154.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgPower <= 0 {
		t.Fatal("no power")
	}
	uw := m.AvgPower.MicroWatts()
	if uw < 100 || uw > 400 {
		t.Fatalf("mid-loss node power = %v µW, implausible", uw)
	}
}

func TestFacadeEvaluateBatch(t *testing.T) {
	var ps []dense802154.Params
	for _, loss := range []float64{60, 75, 90} {
		p := dense802154.DefaultParams()
		p.PathLossDB = loss
		ps = append(ps, p)
	}
	got, err := dense802154.EvaluateBatch(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("batch returned %d metrics for %d params", len(got), len(ps))
	}
	for i, p := range ps {
		want, err := dense802154.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch[%d] differs from serial Evaluate", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dense802154.EvaluateBatch(ctx, ps); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch: err = %v", err)
	}
	dense802154.ContentionCacheReset()
}

// TestFacadeEvaluateBatchEmpty: an empty batch is a legal no-op that
// compiles to a zero-task plan and answers with an empty slice.
func TestFacadeEvaluateBatchEmpty(t *testing.T) {
	for _, ps := range [][]dense802154.Params{nil, {}} {
		got, err := dense802154.EvaluateBatch(context.Background(), ps)
		if err != nil {
			t.Fatalf("empty batch: err = %v", err)
		}
		if got == nil || len(got) != 0 {
			t.Fatalf("empty batch returned %#v, want an empty slice", got)
		}
	}
}

func TestFacadeLinkAdaptation(t *testing.T) {
	p := dense802154.DefaultParams()
	p.PathLossDB = 50
	lvl, err := dense802154.OptimalTXLevel(p)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 0 {
		t.Fatalf("level at 50 dB = %d, want 0", lvl)
	}
	losses := []float64{40, 50, 60, 70, 80, 90}
	ths, err := dense802154.Thresholds(p, losses)
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) == 0 {
		t.Fatal("no thresholds")
	}
	curves, err := dense802154.EnergyVsPathLoss(p, losses)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 8 {
		t.Fatal("8 TX levels expected")
	}
	s, err := dense802154.AdaptationSavings(p, 55)
	if err != nil || s <= 0 {
		t.Fatalf("savings = %v, %v", s, err)
	}
}

func TestFacadePacketSizing(t *testing.T) {
	p := dense802154.DefaultParams()
	series, err := dense802154.EnergyVsPayload(p, []int{20, 60, 120})
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 3 {
		t.Fatal("series length")
	}
	L, e, err := dense802154.OptimalPayload(p, 20)
	if err != nil {
		t.Fatal(err)
	}
	if L != 123 || e <= 0 {
		t.Fatalf("optimal payload %d (energy %v)", L, e)
	}
}

func TestFacadeCaseStudy(t *testing.T) {
	cfg := dense802154.DefaultCaseStudy()
	cfg.LossGridPoints = 9
	res, err := dense802154.RunCaseStudy(dense802154.DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPower.MicroWatts() < 150 || res.AvgPower.MicroWatts() > 300 {
		t.Fatalf("case study power %v", res.AvgPower)
	}
	imp, err := dense802154.EvaluateImprovements(dense802154.DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(imp.Rows) != 3 {
		t.Fatal("improvement rows")
	}
}

func TestFacadeRadio(t *testing.T) {
	r := dense802154.CC2420()
	if len(r.TXLevels) != 8 {
		t.Fatal("TX levels")
	}
	if dense802154.Eq1BER.BitErrorRate(-90) <= 0 {
		t.Fatal("eq1")
	}
}

func TestFacadeSimulations(t *testing.T) {
	cr := dense802154.SimulateContention(dense802154.ContentionConfig{
		TargetLoad: 0.3, Superframes: 10, Seed: 1,
	})
	if cr.Transactions == 0 {
		t.Fatal("no contention transactions")
	}
	sr := dense802154.Simulate(dense802154.SimConfig{
		Nodes: 10, Superframes: 5, Seed: 2,
	})
	if sr.PacketsDelivered == 0 {
		t.Fatal("no simulated deliveries")
	}
	if sr.MeanDelay <= 0 || sr.MeanDelay > time.Minute {
		t.Fatalf("delay %v", sr.MeanDelay)
	}
}

func TestFacadeExperiments(t *testing.T) {
	all := dense802154.Experiments()
	if len(all) < 10 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	tables, err := dense802154.RunExperiment("fig3", dense802154.ExperimentOpts{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || !strings.Contains(tables[0].String(), "CC2420") {
		t.Fatal("fig3 output")
	}
	if _, err := dense802154.RunExperiment("nope", dense802154.ExperimentOpts{}); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error message %q", err)
	}
}
