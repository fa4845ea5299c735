package netsim

import (
	"testing"

	"dense802154/internal/contention"
)

// TestContentionCrossValidation compares the two independent
// implementations of slotted CSMA/CA — the slot-grid Monte-Carlo
// characterizer (internal/contention) and the event-driven simulator
// (this package) — at the case-study operating point. They share the
// mac.Attempt state machine but differ in everything else: time
// representation, medium model, arrival generation, retry handling.
func TestContentionCrossValidation(t *testing.T) {
	sim := Run(Config{Nodes: 100, Superframes: 30, Seed: 31})
	mc := contention.Simulate(contention.Config{
		TargetLoad:  0.433,
		Superframes: 60,
		Seed:        31,
	})

	// The simulator's statistics include retransmission chains (whose
	// backoffs are correlated), so only loose agreement is expected;
	// order-of-magnitude divergence would indicate a protocol bug.
	if ratio := sim.Contention.NCCA / mc.MeanCCAs; ratio < 0.7 || ratio > 1.6 {
		t.Errorf("NCCA: sim %.2f vs MC %.2f (ratio %.2f)", sim.Contention.NCCA, mc.MeanCCAs, ratio)
	}
	if ratio := sim.Contention.Tcont.Seconds() / mc.MeanContention.Seconds(); ratio < 0.5 || ratio > 2.5 {
		t.Errorf("Tcont: sim %v vs MC %v (ratio %.2f)", sim.Contention.Tcont, mc.MeanContention, ratio)
	}
	if sim.Contention.PrCF < mc.PrCF*0.5 || sim.Contention.PrCF > mc.PrCF*3 {
		t.Errorf("PrCF: sim %.3f vs MC %.3f", sim.Contention.PrCF, mc.PrCF)
	}
	t.Logf("sim: %+v", sim.Contention)
	t.Logf("mc:  Tcont=%v NCCA=%.2f PrCF=%.3f PrCol=%.3f",
		mc.MeanContention, mc.MeanCCAs, mc.PrCF, mc.PrCol)

	// Pr_col shows a one-sided gap: the DES (100 nodes, 30 superframes,
	// default NMax = 5) collides several times as often as the MC (here at
	// 200 superframes). Its root cause is doCCA's look-ahead (ROADMAP item
	// 1): a CCA event fires one idle→RX turnaround before the boundary it
	// assesses, on the same instant as the transmit event of a frame that
	// starts at that boundary, and when it fires first it reports the
	// channel idle, so the node transmits one slot later into the frame.
	// Retries add the rest: the DES counts every attempt, the MC fresh
	// transactions only. The band is measured, not derived: over DES
	// seeds 31–50 the ratio averaged 4.43 with a per-seed spread of 0.31,
	// and the MC's Pr_col spread 3.9% over seeds 31–35, so a five-seed
	// mean has σ ≈ 0.22 and the band is the measured mean ± 3σ. A change
	// that moves the ratio out of it, in either simulator, is a behaviour
	// change to explain, not a band to widen.
	mc = contention.Simulate(contention.Config{
		TargetLoad:  0.433,
		Superframes: 200,
		Seed:        31,
	})
	const seeds = 5
	sum := 0.0
	for seed := int64(31); seed < 31+seeds; seed++ {
		sim := Run(Config{Nodes: 100, Superframes: 30, Seed: seed})
		if sim.Contention.PrCol <= mc.PrCol {
			t.Errorf("seed %d: DES Pr_col %.4f is not above the MC's %.4f: the one-sided gap closed",
				seed, sim.Contention.PrCol, mc.PrCol)
		}
		sum += sim.Contention.PrCol
	}
	ratio := sum / seeds / mc.PrCol
	if ratio < 3.75 || ratio > 5.1 {
		t.Errorf("DES/MC Pr_col ratio %.2f outside the measured band [3.75, 5.1] (DES mean %.4f over %d seeds, MC %.4f)",
			ratio, sum/seeds, seeds, mc.PrCol)
	}
	t.Logf("Pr_col: DES mean %.4f over %d seeds, MC %.4f ± %.4f, ratio %.2f",
		sum/seeds, seeds, mc.PrCol, mc.PrColCI95, ratio)
}

// TestTraceInvariants checks the Fig. 5 trace facility: states alternate
// legally and timestamps are monotone.
func TestTraceInvariants(t *testing.T) {
	r := Run(Config{Nodes: 3, Superframes: 3, Seed: 32, TraceNode: 2})
	if len(r.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(r.Trace); i++ {
		if r.Trace[i].At < r.Trace[i-1].At {
			t.Fatalf("trace timestamps not monotone at %d", i)
		}
	}
	// The traced node must visit all four states over a superframe.
	seen := map[string]bool{}
	for _, ev := range r.Trace {
		seen[ev.State.String()] = true
	}
	for _, want := range []string{"shutdown", "idle", "rx", "tx"} {
		if !seen[want] {
			t.Errorf("state %q never visited in trace", want)
		}
	}
	// Tracing another node changes the trace; tracing none disables it.
	r2 := Run(Config{Nodes: 3, Superframes: 3, Seed: 32})
	if len(r2.Trace) != 0 {
		t.Error("trace recorded without TraceNode")
	}
}
