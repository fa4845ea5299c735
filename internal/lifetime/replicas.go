package lifetime

import (
	"context"
	"fmt"
	"math"

	"dense802154/internal/engine"
	"dense802154/internal/netsim"
	"dense802154/internal/stats"
)

// ReplicaSet is the merged outcome of n independent lifetime replications:
// per-replica results in replica order plus across-replica statistics of
// the headline lifetime metrics, in hours to match how the numbers are
// read (a CR2032 network lives thousands of hours, not billions of
// seconds).
type ReplicaSet struct {
	Config   Config
	Replicas int
	Seeds    []int64
	Results  []Result

	FirstDeathHours netsim.ReplicaStat
	PartitionHours  netsim.ReplicaStat
	LastDeathHours  netsim.ReplicaStat
	AliveFracAtEnd  netsim.ReplicaStat
}

// String implements fmt.Stringer with the headline across-replica means.
func (rs ReplicaSet) String() string {
	return fmt.Sprintf("lifetime replicas: n=%d first-death=%.1f h (±%.1f) partition=%.1f h (±%.1f) alive=%.2f",
		rs.Replicas, rs.FirstDeathHours.Mean, rs.FirstDeathHours.CI95,
		rs.PartitionHours.Mean, rs.PartitionHours.CI95, rs.AliveFracAtEnd.Mean)
}

// RunReplicas executes n independent lifetime replications concurrently on
// workers goroutines (0 ⇒ runtime.NumCPU()) and merges them. Replica i
// runs with netsim.ReplicaSeeds(cfg.Sim.Seed, n)[i] — replica 0 keeps the
// base seed, so a 1-replica set is bit-identical to Run(cfg) — and results
// are bit-identical at any worker count.
func RunReplicas(ctx context.Context, cfg Config, n, workers int) (ReplicaSet, error) {
	if n < 1 {
		n = 1
	}
	seeds := netsim.ReplicaSeeds(cfg.Sim.Seed, n)
	// Resolved once, so the replicas share one default radio, BER model
	// and deployment instead of building their own.
	run := cfg
	run.Sim = cfg.Sim.WithDefaults()
	results, err := engine.MapSlice(ctx, workers, seeds,
		func(i int, s int64) (Result, error) {
			c := run
			c.Sim.Seed = s
			return Run(c), nil
		})
	if err != nil {
		return ReplicaSet{}, err
	}
	return Merge(cfg, seeds, results), nil
}

// Merge folds already-computed replica results (results[i] run under
// seeds[i]) into the ReplicaSet RunReplicas reports. Split out so the
// unified query planner, which schedules replicas as individual tasks,
// assembles a set bit-identical to RunReplicas.
func Merge(cfg Config, seeds []int64, results []Result) ReplicaSet {
	rs := ReplicaSet{Config: cfg, Replicas: len(results), Seeds: seeds, Results: results}
	rs.FirstDeathHours = fold(results, func(r *Result) float64 { return r.FirstDeathS / 3600 })
	rs.PartitionHours = fold(results, func(r *Result) float64 { return r.PartitionS / 3600 })
	rs.LastDeathHours = fold(results, func(r *Result) float64 { return r.LastDeathS / 3600 })
	rs.AliveFracAtEnd = fold(results, func(r *Result) float64 { return r.AliveFracAtEnd })
	return rs
}

// fold folds one observable of every replica, in replica order, into a
// ReplicaStat. Lifetime observables are legitimately +Inf ("never died
// within the run"): a mean over any +Inf is +Inf with a zero half-width and
// the smallest observation as its minimum — never NaN, so every stat
// survives the wire encoding exactly.
func fold(results []Result, obs func(*Result) float64) netsim.ReplicaStat {
	var a stats.Accumulator
	inf := false
	mn := math.Inf(1)
	for i := range results {
		x := obs(&results[i])
		if math.IsInf(x, 1) {
			inf = true
		}
		if x < mn {
			mn = x
		}
		if !inf {
			a.Add(x)
		}
	}
	if inf {
		return netsim.ReplicaStat{Mean: math.Inf(1), CI95: 0, Min: mn, Max: math.Inf(1)}
	}
	return netsim.ReplicaStat{Mean: a.Mean(), CI95: a.CI95(), Min: a.Min(), Max: a.Max()}
}
