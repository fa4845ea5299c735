package core

import (
	"context"
	"reflect"
	"testing"

	"dense802154/internal/channel"
	"dense802154/internal/contention"
	"dense802154/internal/contention/contentiontest"
)

// TestOneContentionLookupPerPoint: contention depends on packet size and
// load only, so an auto-level evaluation asks its source once, not once per
// TX level, and a sweep whose points share (payload, load) asks once in
// all.
func TestOneContentionLookupPerPoint(t *testing.T) {
	p := DefaultParams()
	counting := func() *contentiontest.Counting {
		c := &contentiontest.Counting{Inner: contention.Approx{}}
		p.Contention = c
		return c
	}
	losses := channel.LossGrid(55, 95, 9)
	cases := []struct {
		name string
		run  func() error
		want int64
	}{
		{"Evaluate", func() error { _, err := Evaluate(p); return err }, 1},
		{"OptimalTXLevel", func() error { _, err := OptimalTXLevel(p); return err }, 1},
		{"EnergyVsPathLossCtx", func() error { _, err := EnergyVsPathLossCtx(context.Background(), p, losses); return err }, 1},
		{"AdaptedEnergySeriesCtx", func() error { _, err := AdaptedEnergySeriesCtx(context.Background(), p, losses); return err }, 1},
		{"RunCaseStudy", func() error { _, err := RunCaseStudy(p, DefaultCaseStudy()); return err }, 1},
		{"EnergyVsPayload", func() error { _, err := EnergyVsPayload(p, []int{20, 60, 120}); return err }, 3},
	}
	for _, c := range cases {
		src := counting()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if src.Calls() != c.want {
			t.Errorf("%s asked its contention source %d times, want %d", c.name, src.Calls(), c.want)
		}
	}
}

// TestEvaluateWithStatsMatchesEvaluate: given the source's own answer,
// EvaluateWithStats is Evaluate to the bit, at every level and under link
// adaptation, across the path-loss range.
func TestEvaluateWithStatsMatchesEvaluate(t *testing.T) {
	p := DefaultParams()
	p.Contention = contention.NewMCSource(contention.Config{Superframes: 8, Seed: 3})
	cs := p.Contention.Contention(p.PayloadBytes, p.Load)
	for _, loss := range channel.LossGrid(50, 100, 11) {
		for level := AutoTXLevel; level <= p.Radio.MaxTXLevel(); level++ {
			q := p
			q.PathLossDB, q.TXLevelIndex = loss, level
			want, err := Evaluate(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvaluateWithStats(q, cs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loss %v level %d: EvaluateWithStats = %+v, Evaluate = %+v", loss, level, got, want)
			}
		}
	}
	bad := p
	bad.PayloadBytes = 0
	if _, err := EvaluateWithStats(bad, cs); err == nil {
		t.Fatal("EvaluateWithStats accepted an invalid point")
	}
}
