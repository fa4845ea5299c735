package contention

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dense802154/internal/mac"
)

func lightCfg(load float64, payload int) Config {
	return Config{
		PayloadBytes: payload,
		TargetLoad:   load,
		Superframes:  20,
		Seed:         42,
	}
}

func TestLowLoadBehaviour(t *testing.T) {
	r := Simulate(lightCfg(0.02, 120))
	if r.Transactions == 0 {
		t.Fatal("no transactions simulated")
	}
	// At 2% load contention is almost always immediate: ~2 CCAs, rare
	// failures and collisions.
	if r.MeanCCAs < 2 || r.MeanCCAs > 2.5 {
		t.Errorf("NCCA at 2%% load = %v, want ≈2", r.MeanCCAs)
	}
	if r.PrCF > 0.02 {
		t.Errorf("Prcf at 2%% load = %v, want ≈0", r.PrCF)
	}
	if r.PrCol > 0.05 {
		t.Errorf("Prcol at 2%% load = %v, want small", r.PrCol)
	}
	// Mean contention: initial backoff mean 3.5 slots + 2 CCA slots + 1
	// turnaround slot ≈ 6.5 slots ≈ 2.1 ms; allow slack.
	if r.MeanContention < 500*time.Microsecond || r.MeanContention > 5*time.Millisecond {
		t.Errorf("Tcont at 2%% load = %v", r.MeanContention)
	}
}

func TestMetricsGrowWithLoad(t *testing.T) {
	low := Simulate(lightCfg(0.1, 120))
	high := Simulate(lightCfg(0.7, 120))
	if high.MeanCCAs <= low.MeanCCAs {
		t.Errorf("NCCA must grow with load: %v -> %v", low.MeanCCAs, high.MeanCCAs)
	}
	if high.PrCF <= low.PrCF {
		t.Errorf("Prcf must grow with load: %v -> %v", low.PrCF, high.PrCF)
	}
	if high.MeanContention <= low.MeanContention {
		t.Errorf("Tcont must grow with load: %v -> %v", low.MeanContention, high.MeanContention)
	}
	if high.PrCol <= low.PrCol {
		t.Errorf("Prcol must grow with load: %v -> %v", low.PrCol, high.PrCol)
	}
}

func TestOfferedLoadMatchesTarget(t *testing.T) {
	for _, target := range []float64{0.1, 0.42, 0.8} {
		cfg := lightCfg(target, 120)
		cfg.Superframes = 50
		r := Simulate(cfg)
		if math.Abs(r.OfferedLoad-target)/target > 0.15 {
			t.Errorf("offered load %v vs target %v", r.OfferedLoad, target)
		}
	}
}

func TestCaseStudyOperatingPoint(t *testing.T) {
	// The paper's §5 scenario: 100 nodes × 120 B at BO=6 → λ≈0.43,
	// Pr_cf around 10-25% ("probability of transmission failure of 16%"
	// is dominated by Pr_cf at mid loads), collisions a few percent.
	cfg := lightCfg(0.433, 120)
	cfg.Superframes = 100
	r := Simulate(cfg)
	t.Logf("case study contention: %v", r)
	if r.PrCF < 0.02 || r.PrCF > 0.4 {
		t.Errorf("Prcf = %v, outside plausible window for the 42%% scenario", r.PrCF)
	}
	if r.MeanCCAs < 2 || r.MeanCCAs > 6 {
		t.Errorf("NCCA = %v, outside plausible window", r.MeanCCAs)
	}
	if r.MeanContention < time.Millisecond || r.MeanContention > 30*time.Millisecond {
		t.Errorf("Tcont = %v, outside plausible window", r.MeanContention)
	}
}

func TestCollisionsNeedSimultaneousStart(t *testing.T) {
	// With exactly one packet offered per superframe there is nobody to
	// collide with and access never fails.
	cfg := lightCfg(0.004, 120) // ≈1 packet per superframe
	cfg.Superframes = 50
	r := Simulate(cfg)
	if r.PrCol != 0 {
		t.Errorf("lone transmitter collided: %v", r.PrCol)
	}
	if r.PrCF > 0.01 {
		t.Errorf("lone transmitter failed access: %v", r.PrCF)
	}
}

func TestAtBeaconArrivalIsWorse(t *testing.T) {
	uniform := lightCfg(0.3, 120)
	uniform.Superframes = 30
	burst := uniform
	burst.Arrival = ArrivalAtBeacon
	ru := Simulate(uniform)
	rb := Simulate(burst)
	// A synchronized burst must collide and fail far more often.
	if rb.PrCol <= ru.PrCol {
		t.Errorf("burst Prcol %v not worse than uniform %v", rb.PrCol, ru.PrCol)
	}
	if rb.MeanContention <= ru.MeanContention {
		t.Errorf("burst Tcont %v not worse than uniform %v", rb.MeanContention, ru.MeanContention)
	}
}

func TestBatteryLifeExtCollides(t *testing.T) {
	// The paper rejects BLE "in dense network conditions" because the
	// tiny backoff window (BE ≤ 2) cannot separate many simultaneous
	// contenders. The effect is starkest for burst arrivals: nodes that
	// wake with the beacon draw initial delays from only 4 slots.
	normal := lightCfg(0.42, 120)
	normal.Superframes = 40
	normal.Arrival = ArrivalAtBeacon
	ble := normal
	p := mac.PaperParams()
	p.BatteryLifeExt = true
	ble.CSMA = p
	rn := Simulate(normal)
	rb := Simulate(ble)
	t.Logf("normal: %v", rn)
	t.Logf("BLE:    %v", rb)
	// Compare overall transaction loss (collision or access failure):
	// restricting to collisions alone is misleading because BLE's extra
	// access failures remove would-be colliders.
	lossN := 1 - (1-rn.PrCF)*(1-rn.PrCol)
	lossB := 1 - (1-rb.PrCF)*(1-rb.PrCol)
	if lossB <= lossN {
		t.Errorf("BLE loss %v not worse than normal %v", lossB, lossN)
	}
}

func TestDeterminism(t *testing.T) {
	a := Simulate(lightCfg(0.4, 50))
	b := Simulate(lightCfg(0.4, 50))
	if a.PrCF != b.PrCF || a.MeanCCAs != b.MeanCCAs || a.Transactions != b.Transactions {
		t.Fatal("same seed must reproduce identical results")
	}
	c := lightCfg(0.4, 50)
	c.Seed = 43
	d := Simulate(c)
	if d.Transactions == a.Transactions && d.MeanContention == a.MeanContention && d.PrCF == a.PrCF {
		t.Fatal("different seed produced identical run (suspicious)")
	}
}

func TestSmallPacketsLowerCollisionCost(t *testing.T) {
	// At equal load, small packets mean more transmissions but shorter
	// busy periods; the failure probability should be no worse than with
	// large packets.
	small := Simulate(lightCfg(0.5, 10))
	large := Simulate(lightCfg(0.5, 100))
	t.Logf("small: %v", small)
	t.Logf("large: %v", large)
	if small.Transactions <= large.Transactions {
		t.Error("equal load with small packets must mean more transactions")
	}
}

func TestResultString(t *testing.T) {
	r := Simulate(lightCfg(0.1, 20))
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestNegativeLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative load must panic")
		}
	}()
	Simulate(lightCfg(-0.1, 120))
}

// TestNegativeSuperframesPanics: a negative run length is rejected like a
// negative load, not simulated as a run of no superframes.
func TestNegativeSuperframesPanics(t *testing.T) {
	for _, sf := range []int{-3, -20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Superframes %d must panic", sf)
				}
			}()
			c := lightCfg(0.1, 120)
			c.Superframes = sf
			Simulate(c)
		}()
	}
}

func TestArrivalModelString(t *testing.T) {
	if ArrivalUniform.String() == "" || ArrivalAtBeacon.String() == "" || ArrivalModel(9).String() == "" {
		t.Fatal("arrival strings")
	}
}

// TestEveryTransactionEnds pins the invariant aggregate's fold relies on:
// every transaction ends either granted or failed, never both, and only a
// granted one collides. The shards are run directly, so the population is
// counted as spawned, not as the tally saw it.
func TestEveryTransactionEnds(t *testing.T) {
	payloads := []int{5, 33, 80, 123}
	rows := 0
	for bo := uint8(0); bo <= 8; bo++ {
		sf, err := mac.NewSuperframe(bo, bo)
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range []float64{0.05, 0.5, 1.5, 3} {
			for _, arr := range []ArrivalModel{ArrivalUniform, ArrivalAtBeacon} {
				for _, ble := range []bool{false, true} {
					csma := mac.PaperParams()
					csma.BatteryLifeExt = ble
					cfg := Config{
						PayloadBytes: payloads[rows%len(payloads)], Superframe: sf,
						CSMA: csma, Arrival: arr, TargetLoad: load,
						Superframes: max(2, 64>>bo), Seed: int64(rows) + 1,
					}.prepared()
					name := fmt.Sprintf("BO%d/λ%g/L%d/%v/ble=%v", bo, load, cfg.PayloadBytes, arr, ble)
					rows++

					spawned := 0
					for i := range cfg.shardCount() {
						st := cfg.runShard(i)
						for k := range st.txns {
							x := &st.txns[k]
							if x.granted == x.failed || x.collided && !x.granted {
								t.Fatalf("%s: transaction %d ends granted/failed/collided %v/%v/%v",
									name, k, x.granted, x.failed, x.collided)
							}
						}
						spawned += len(st.txns)
						shardPool.Put(st)
					}
					r := Simulate(cfg)
					if r.Transactions != spawned || r.Granted+r.Failed != r.Transactions || r.Collided > r.Granted {
						t.Fatalf("%s: %d spawned, %d transactions = %d granted + %d failed, %d collided",
							name, spawned, r.Transactions, r.Granted, r.Failed, r.Collided)
					}
				}
			}
		}
	}
}
