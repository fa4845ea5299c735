package netsim

import (
	"context"
	"fmt"
	"time"

	"dense802154/internal/engine"
	"dense802154/internal/stats"
)

// ReplicaStat is the across-replica summary of one scalar: sample mean,
// normal-approximation 95% confidence half-width, and the observed range.
type ReplicaStat struct {
	Mean, CI95, Min, Max float64
}

// String implements fmt.Stringer.
func (s ReplicaStat) String() string {
	return fmt.Sprintf("%.4g ±%.2g", s.Mean, s.CI95)
}

// fold folds one observable of every replica, in replica order, into a
// ReplicaStat.
func fold(results []Result, obs func(*Result) float64) ReplicaStat {
	var a stats.Accumulator
	for i := range results {
		a.Add(obs(&results[i]))
	}
	return ReplicaStat{Mean: a.Mean(), CI95: a.CI95(), Min: a.Min(), Max: a.Max()}
}

// ReplicaSet is the merged outcome of n independent replications of one
// simulation configuration: the per-replica results (in replica order, each
// under its own derived seed) and the across-replica statistics of the
// headline metrics.
type ReplicaSet struct {
	Config   Config
	Replicas int
	Seeds    []int64
	Results  []Result

	AvgPowerUW    ReplicaStat // per-node average power [µW]
	DeliveryRatio ReplicaStat
	PrFail        ReplicaStat // per-attempt transaction failure
	PrCF          ReplicaStat // contention access failure
	PrCol         ReplicaStat // residual collision probability
	NCCA          ReplicaStat // mean CCAs per contention procedure
	TcontMS       ReplicaStat // mean contention duration [ms]
	MeanDelayMS   ReplicaStat // mean delivery delay [ms]
}

// String implements fmt.Stringer with the headline across-replica means.
func (rs ReplicaSet) String() string {
	return fmt.Sprintf("netsim replicas: n=%d power=%.1f µW (±%.1f) delivery=%.3f (±%.3f) Prcf=%.3f (±%.3f)",
		rs.Replicas, rs.AvgPowerUW.Mean, rs.AvgPowerUW.CI95,
		rs.DeliveryRatio.Mean, rs.DeliveryRatio.CI95,
		rs.PrCF.Mean, rs.PrCF.CI95)
}

// ReplicaSeeds derives the n replica seeds from a base seed. Replica 0
// keeps the base seed — a 1-replica run is bit-identical to Run(cfg) — and
// the rest use engine.DeriveSeed, so any replica count reuses the same
// streams: growing n refines the confidence intervals without changing the
// replicas already computed.
func ReplicaSeeds(base int64, n int) []int64 {
	seeds := make([]int64, n)
	if n == 0 {
		return seeds
	}
	seeds[0] = base
	for i := 1; i < n; i++ {
		seeds[i] = engine.DeriveSeed(base, int64(i))
	}
	return seeds
}

// RunReplicas executes n independent replications of cfg concurrently on a
// pool of workers goroutines (0 ⇒ runtime.NumCPU()) and merges them into
// across-replica mean and 95% confidence statistics. Replica i runs with
// ReplicaSeeds(cfg.Seed, n)[i]; results are bit-identical at any worker
// count. A canceled ctx stops the batch promptly with ctx.Err().
//
// The batch draws one pooled arena per worker up front and the workers pass
// them around, so it holds exactly min(workers, n) arenas however the
// goroutines interleave, and every arena goes back to the pool each call.
// Arenas drawn per replica would depend on the scheduler: a worker
// preempted mid-run makes its peer open a fresh arena (about sixty
// allocations), and an arena left idle in the pool is dropped after two
// garbage collections.
func RunReplicas(ctx context.Context, cfg Config, n, workers int) (ReplicaSet, error) {
	if n < 1 {
		n = 1
	}
	seeds := ReplicaSeeds(cfg.Seed, n)
	// Resolved once, so the replicas share one default radio, BER model
	// and deployment instead of building their own.
	run := cfg.WithDefaults()
	arenas := make(chan *Runner, min(engine.ResolveWorkers(workers), n))
	for range cap(arenas) {
		arenas <- runnerPool.Get().(*Runner)
	}
	results, err := engine.MapSlice(ctx, workers, seeds,
		func(i int, s int64) (Result, error) {
			r := <-arenas
			c := run
			c.Seed = s
			res := r.Run(c)
			arenas <- r
			return res, nil
		})
	for range cap(arenas) {
		runnerPool.Put(<-arenas)
	}
	if err != nil {
		return ReplicaSet{}, err
	}
	return Merge(cfg, seeds, results), nil
}

// Merge folds already-computed replica results (results[i] run under
// seeds[i]) into a ReplicaSet with the across-replica statistics RunReplicas
// reports. It is the assembly half of RunReplicas, split out so callers that
// schedule the replicas themselves (the unified query planner streams them
// one by one) produce a ReplicaSet bit-identical to RunReplicas.
func Merge(cfg Config, seeds []int64, results []Result) ReplicaSet {
	rs := ReplicaSet{Config: cfg, Replicas: len(results), Seeds: seeds, Results: results}
	rs.AvgPowerUW = fold(results, func(r *Result) float64 { return r.AvgPowerPerNode.MicroWatts() })
	rs.DeliveryRatio = fold(results, func(r *Result) float64 { return r.DeliveryRatio })
	rs.PrFail = fold(results, func(r *Result) float64 { return r.PrFailPerAttempt })
	rs.PrCF = fold(results, func(r *Result) float64 { return r.Contention.PrCF })
	rs.PrCol = fold(results, func(r *Result) float64 { return r.Contention.PrCol })
	rs.NCCA = fold(results, func(r *Result) float64 { return r.Contention.NCCA })
	rs.TcontMS = fold(results, func(r *Result) float64 {
		return float64(r.Contention.Tcont) / float64(time.Millisecond)
	})
	rs.MeanDelayMS = fold(results, func(r *Result) float64 {
		return float64(r.MeanDelay) / float64(time.Millisecond)
	})
	return rs
}
