package lifetime

import (
	"math"
	"math/rand"
	"testing"

	"dense802154/internal/netsim"
	"dense802154/internal/stats"
)

// sliceAccumulate is the slice-based fold Merge used before it folded
// straight into a stats.Accumulator, kept as the oracle of
// TestMergeMatchesSliceFold.
func sliceAccumulate(xs []float64) netsim.ReplicaStat {
	var a stats.Accumulator
	for _, x := range xs {
		if math.IsInf(x, 1) {
			mn := math.Inf(1)
			for _, y := range xs {
				if y < mn {
					mn = y
				}
			}
			return netsim.ReplicaStat{Mean: math.Inf(1), CI95: 0, Min: mn, Max: math.Inf(1)}
		}
		a.Add(x)
	}
	return netsim.ReplicaStat{Mean: a.Mean(), CI95: a.CI95(), Min: a.Min(), Max: a.Max()}
}

// sliceMerge is Merge's statistics through sliceAccumulate: one scratch
// slice of observations per statistic.
func sliceMerge(results []Result) [4]netsim.ReplicaStat {
	obs := func(f func(Result) float64) netsim.ReplicaStat {
		xs := make([]float64, len(results))
		for i, r := range results {
			xs[i] = f(r)
		}
		return sliceAccumulate(xs)
	}
	return [4]netsim.ReplicaStat{
		obs(func(r Result) float64 { return r.FirstDeathS / 3600 }),
		obs(func(r Result) float64 { return r.PartitionS / 3600 }),
		obs(func(r Result) float64 { return r.LastDeathS / 3600 }),
		obs(func(r Result) float64 { return r.AliveFracAtEnd }),
	}
}

// fields lists a stat's fields, which print without the String method's
// rounding.
func fields(s netsim.ReplicaStat) [4]float64 { return [4]float64{s.Mean, s.CI95, s.Min, s.Max} }

// bits lists the bit patterns of a stat's fields.
func bits(s netsim.ReplicaStat) [4]uint64 {
	var b [4]uint64
	for i, f := range fields(s) {
		b[i] = math.Float64bits(f)
	}
	return b
}

// TestMergeMatchesSliceFold is a property test of Merge's fold: random
// replica sets, with and without +Inf observations (a replica that never
// died or never partitioned), give statistics bit-identical to the
// slice-based fold, the +Inf rule (Mean +Inf, CI95 0, Min over every
// replica) included.
func TestMergeMatchesSliceFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	obs := func(infShare float64) float64 {
		if rng.Float64() < infShare {
			return math.Inf(1)
		}
		return rng.ExpFloat64() * 1e7
	}
	for trial := 0; trial < 2000; trial++ {
		infShare := []float64{0, 0.1, 0.5}[trial%3]
		results := make([]Result, 1+rng.Intn(12))
		for i := range results {
			results[i] = Result{
				FirstDeathS:    obs(infShare),
				PartitionS:     obs(infShare),
				LastDeathS:     obs(infShare),
				AliveFracAtEnd: rng.Float64(),
			}
		}
		rs := Merge(Config{}, nil, results)
		got := [4]netsim.ReplicaStat{rs.FirstDeathHours, rs.PartitionHours, rs.LastDeathHours, rs.AliveFracAtEnd}
		for k, want := range sliceMerge(results) {
			if bits(got[k]) != bits(want) {
				t.Fatalf("trial %d, stat %d: Merge %v, slice fold %v", trial, k, fields(got[k]), fields(want))
			}
		}
	}
}
