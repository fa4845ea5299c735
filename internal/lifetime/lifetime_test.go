package lifetime

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dense802154/internal/battery"
	"dense802154/internal/netsim"
	"dense802154/internal/units"
)

// testConfig drains a deliberately tiny battery so deaths land within a
// handful of live epochs plus fast-forward, keeping the test fast.
func testConfig() Config {
	return Config{
		Sim:              netsim.Config{Nodes: 8, Superframes: 1, Seed: 42},
		Supply:           battery.Supply{CapacityJ: 0.5, SelfDischargePerYear: 0.01},
		EpochSuperframes: 4,
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(testConfig())
	b := Run(testConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs produced different lifetime results")
	}
}

func TestRunAllDie(t *testing.T) {
	res := Run(testConfig())
	if res.Deaths != res.Nodes || res.AliveAtEnd != 0 {
		t.Fatalf("deaths=%d alive=%d, want the whole population (%d) dead", res.Deaths, res.AliveAtEnd, res.Nodes)
	}
	if res.AliveFracAtEnd != 0 {
		t.Fatalf("AliveFracAtEnd = %v, want 0", res.AliveFracAtEnd)
	}
	if math.IsInf(res.FirstDeathS, 1) || math.IsInf(res.PartitionS, 1) || math.IsInf(res.LastDeathS, 1) {
		t.Fatalf("fully dead network kept infinite times: first=%v partition=%v last=%v",
			res.FirstDeathS, res.PartitionS, res.LastDeathS)
	}
	if !(res.FirstDeathS > 0 && res.FirstDeathS <= res.PartitionS && res.PartitionS <= res.LastDeathS) {
		t.Fatalf("death times out of order: first=%v partition=%v last=%v",
			res.FirstDeathS, res.PartitionS, res.LastDeathS)
	}
	// Sanity: the per-node closed form predicts the timescale. A CC2420
	// node here runs well above 100 µW, so a 0.5 J cell dies within hours;
	// it cannot die before the battery could possibly drain at full-on
	// receive power (~60 mW).
	if res.FirstDeathS < 0.5/0.1 {
		t.Fatalf("first death at %v s is faster than full-on drain allows", res.FirstDeathS)
	}
	if res.LastDeathS > 24*3600 {
		t.Fatalf("last death at %v s, expected within a day for a 0.5 J cell", res.LastDeathS)
	}
}

func TestRunCurveShape(t *testing.T) {
	res := Run(testConfig())
	if len(res.Curve) != 1+res.Deaths {
		t.Fatalf("curve has %d points, want leading point + %d deaths", len(res.Curve), res.Deaths)
	}
	head := res.Curve[0]
	if head.TimeS != 0 || head.Alive != res.Nodes || head.Frac != 1 {
		t.Fatalf("curve head %+v, want {0, %d, 1}", head, res.Nodes)
	}
	for i := 1; i < len(res.Curve); i++ {
		prev, cur := res.Curve[i-1], res.Curve[i]
		if cur.TimeS < prev.TimeS {
			t.Fatal("curve times must be non-decreasing")
		}
		if cur.Alive != prev.Alive-1 {
			t.Fatal("each curve point records exactly one death")
		}
		if want := float64(cur.Alive) / float64(res.Nodes); cur.Frac != want {
			t.Fatalf("curve point %d frac %v, want %v", i, cur.Frac, want)
		}
	}
}

func TestFastForwardLeverage(t *testing.T) {
	// A CR2032 lives months: almost all of that time must be skipped
	// analytically, not simulated beacon by beacon.
	cfg := testConfig()
	cfg.Supply = battery.CoinCellCR2032()
	cfg.Sim.Nodes = 4
	cfg.MaxEpochs = 64
	res := Run(cfg)
	if res.FastForwardS < 100*res.SimulatedS {
		t.Fatalf("fast-forward covered %v s vs %v s simulated; the integrator is not skipping",
			res.FastForwardS, res.SimulatedS)
	}
	if res.Deaths == 0 {
		t.Fatal("a pure battery network must eventually lose nodes")
	}
	// The closed-form single-node lifetime brackets the first death: the
	// real network cannot outlive the hottest node's battery by much, nor
	// die orders of magnitude early.
	d, ok := cfg.Supply.Lifetime(200 * units.MicroWatt)
	if !ok {
		t.Fatal("closed form failed")
	}
	if res.FirstDeathS > 10*d.Seconds() || res.FirstDeathS < d.Seconds()/100 {
		t.Fatalf("first death %v s vs closed-form ballpark %v s", res.FirstDeathS, d.Seconds())
	}
}

func TestSustainableHarvest(t *testing.T) {
	cfg := testConfig()
	// A harvester that dwarfs any radio draw: nobody can ever die.
	cfg.Supply = battery.CoinCellCR2032().WithHarvest(1 * units.Watt)
	res := Run(cfg)
	if !res.Sustainable {
		t.Fatal("overwhelming harvest must report Sustainable")
	}
	if res.Deaths != 0 || res.AliveAtEnd != res.Nodes {
		t.Fatalf("sustainable network lost nodes: deaths=%d", res.Deaths)
	}
	if !math.IsInf(res.FirstDeathS, 1) || !math.IsInf(res.PartitionS, 1) || !math.IsInf(res.LastDeathS, 1) {
		t.Fatal("sustainable network must report infinite death times")
	}
}

func TestUnconstrainedSupply(t *testing.T) {
	cfg := testConfig()
	cfg.Supply = battery.VibrationHarvester() // no finite battery modeled
	res := Run(cfg)
	if !res.Sustainable || res.Deaths != 0 {
		t.Fatalf("capacity-less supply must be unconstrained: sustainable=%v deaths=%d",
			res.Sustainable, res.Deaths)
	}
	if res.Epochs != 1 {
		t.Fatalf("unconstrained run simulated %d epochs, one characterizes it", res.Epochs)
	}
}

func TestThresholdEatsBattery(t *testing.T) {
	cfg := testConfig()
	cfg.ThresholdJ = cfg.Supply.CapacityJ + 1
	res := Run(cfg)
	if res.AliveAtEnd != 0 || res.FirstDeathS != 0 || res.LastDeathS != 0 {
		t.Fatalf("threshold above capacity must kill everyone at t=0: %+v", res)
	}
	if res.Epochs != 0 {
		t.Fatal("no epoch may run for a dead-on-arrival population")
	}
}

// TestRunTelemetryFold reads the package counters around single runs:
// every return path of Run folds exactly once, the dead-on-arrival path
// included.
func TestRunTelemetryFold(t *testing.T) {
	doa := testConfig()
	doa.ThresholdJ = doa.Supply.CapacityJ + 1
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"normal", testConfig()},
		{"threshold-eats-battery", doa},
	} {
		runs0, epochs0, deaths0 := runsTotal.Value(), epochsTotal.Value(), deathsTotal.Value()
		res := Run(c.cfg)
		if got := runsTotal.Value() - runs0; got != 1 {
			t.Errorf("%s: runs_total advanced by %d, want 1", c.name, got)
		}
		if got := epochsTotal.Value() - epochs0; got != uint64(res.Epochs) {
			t.Errorf("%s: epochs_total advanced by %d, want %d", c.name, got, res.Epochs)
		}
		if got := deathsTotal.Value() - deaths0; got != uint64(res.Deaths) || res.Deaths != res.Nodes {
			t.Errorf("%s: deaths_total advanced by %d for %d deaths, want all %d nodes", c.name, got, res.Deaths, res.Nodes)
		}
	}
}

func TestHorizonCapsRun(t *testing.T) {
	cfg := testConfig()
	cfg.Supply = battery.CoinCellCR2032() // months of life...
	cfg.HorizonHours = 1                  // ...but only watch the first hour
	res := Run(cfg)
	if res.Deaths != 0 {
		t.Fatal("no CR2032 node dies within an hour")
	}
	covered := res.SimulatedS + res.FastForwardS
	if covered < 3600 || covered > 2*3600 {
		t.Fatalf("horizon-capped run covered %v s, want ≈3600", covered)
	}
}

func TestReplicaBitIdentity(t *testing.T) {
	cfg := testConfig()
	one, err := RunReplicas(context.Background(), cfg, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunReplicas(context.Background(), cfg, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatal("replica set differs between 1 and 8 workers")
	}
	if !reflect.DeepEqual(one.Results[0], Run(cfg)) {
		t.Fatal("replica 0 must keep the base seed")
	}
	if one.FirstDeathHours.CI95 < 0 || math.IsNaN(one.FirstDeathHours.CI95) {
		t.Fatalf("bad CI: %+v", one.FirstDeathHours)
	}
}

func TestMergeInfiniteObservations(t *testing.T) {
	// One replica never partitions: the across-replica mean is +Inf with a
	// zero half-width, never NaN (the wire codec rejects NaN).
	finite := Result{FirstDeathS: 3600, PartitionS: 7200, LastDeathS: 9000}
	never := Result{FirstDeathS: 3600, PartitionS: math.Inf(1), LastDeathS: math.Inf(1)}
	rs := Merge(Config{}, []int64{1, 2}, []Result{finite, never})
	p := rs.PartitionHours
	if !math.IsInf(p.Mean, 1) || p.CI95 != 0 || !math.IsInf(p.Max, 1) || p.Min != 2 {
		t.Fatalf("infinite partition stat %+v", p)
	}
	if math.IsNaN(p.Mean) || math.IsNaN(p.CI95) || math.IsNaN(p.Min) || math.IsNaN(p.Max) {
		t.Fatal("NaN leaked into replica stats")
	}
	if rs.FirstDeathHours.Mean != 1 || rs.FirstDeathHours.CI95 != 0 {
		t.Fatalf("finite stat %+v", rs.FirstDeathHours)
	}
}

func TestDefaults(t *testing.T) {
	c := (Config{}).withDefaults()
	if c.Supply != battery.CoinCellCR2032() {
		t.Fatal("default supply must be the CR2032 coin cell")
	}
	if c.PartitionFrac != 0.5 || c.EpochSuperframes != 16 || c.MaxEpochs != 512 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Sim.Nodes == 0 {
		t.Fatal("sim defaults must be resolved")
	}
}
