package contention

import (
	"context"
	"math"
	"time"

	"dense802154/internal/engine"
)

// Stats is the tuple of contention-side quantities the analytical energy
// model consumes (the paper's T̄cont, N̄CCA, Pr_cf, Pr_col).
type Stats struct {
	Tcont time.Duration
	NCCA  float64
	PrCF  float64
	PrCol float64
}

// Source yields contention statistics for a payload size and offered load.
// The analytical model (internal/core) is parameterized over this
// interface; the paper characterizes the relation empirically by
// Monte-Carlo simulation (MCSource), and Approx provides a closed-form
// baseline for comparison.
//
// Implementations must be safe for concurrent use: the model's sweep entry
// points evaluate grid points on a worker pool (core.Params.Workers, which
// defaults to runtime.NumCPU()) and call Contention from many goroutines.
// MCSource and Approx satisfy this; a custom source that memoizes must
// either lock or run the sweep with Workers = 1.
type Source interface {
	Contention(payloadBytes int, load float64) Stats
}

// Curve is the Monte-Carlo characterization of one packet size across a
// load sweep — one set of the four Fig. 6 series.
type Curve struct {
	PayloadBytes int
	Loads        []float64
	TcontSec     []float64
	NCCA         []float64
	PrCF         []float64
	PrCol        []float64
	Results      []Result
}

// BuildCurve simulates the contention procedure for the given payload at
// each target load. base supplies the superframe, CSMA parameters, arrival
// model, run length, seed and worker count; its PayloadBytes/TargetLoad are
// overridden. The load points run concurrently on base.Workers goroutines
// with point seeds derived from base.Seed, so the curve is identical at any
// worker count.
func BuildCurve(payload int, loads []float64, base Config) Curve {
	c := Curve{PayloadBytes: payload}
	// When the curve fans out over several load points, run each point's
	// Simulate serially so total concurrency stays at base.Workers instead
	// of multiplying point workers by shard workers. Results are identical
	// either way — Workers never changes statistics.
	pointCfg := base
	if len(loads) > 1 {
		pointCfg.Workers = 1
	}
	// Point simulations cannot fail and the context is never canceled.
	results, _ := engine.MapSlice(context.Background(), base.Workers, loads,
		func(i int, l float64) (Result, error) {
			cfg := pointCfg
			cfg.PayloadBytes = payload
			cfg.TargetLoad = l
			cfg.Seed = base.Seed + int64(i)*7919
			return Simulate(cfg), nil
		})
	for i, l := range loads {
		r := results[i]
		c.Loads = append(c.Loads, l)
		c.TcontSec = append(c.TcontSec, r.MeanContention.Seconds())
		c.NCCA = append(c.NCCA, r.MeanCCAs)
		c.PrCF = append(c.PrCF, r.PrCF)
		c.PrCol = append(c.PrCol, r.PrCol)
		c.Results = append(c.Results, r)
	}
	return c
}

// mcKey identifies one Monte-Carlo characterization point in the shared
// contention cache: the full simulation config (with the per-point fields
// normalized out) plus the payload and the quantized load. Workers is
// excluded because the sharded simulation is worker-count independent — the
// same statistics are produced, and may be shared, at any parallelism.
type mcKey struct {
	base      Config
	payload   int
	loadMilli int
}

// mcCache is the process-wide memoized contention cache: every MCSource —
// and therefore every sweep of the analytical model — shares it, so
// identical contention statistics are simulated once per sweep instead of
// once per point, even when many engine workers request the same point
// concurrently (single-flight semantics).
var mcCache engine.Cache[mcKey, Stats]

// ResetCache drops the shared Monte-Carlo contention cache. Long-running
// services sweeping unbounded (payload, load, config) spaces should call it
// between sweeps to bound memory — or install a standing bound with
// SetCacheLimit; tests use it to force re-simulation.
func ResetCache() { mcCache.Reset() }

// SetCacheLimit bounds the shared contention cache to at most n
// characterizations with least-recently-used eviction; n ≤ 0 removes the
// bound. Services sweeping unbounded parameter spaces set this once at
// startup instead of calling ResetCache between sweeps.
func SetCacheLimit(n int) { mcCache.SetLimit(n) }

// CacheStats snapshots the shared contention cache's hit/miss/eviction
// counters and current size.
func CacheStats() engine.CacheStats { return mcCache.Stats() }

// MCSource is a Monte-Carlo-backed Source with memoization. It simulates
// on demand at the requested (payload, load) point; results are cached on a
// quantized key in the process-wide shared cache, so sweeps of the
// analytical model — including concurrent batch sweeps — do not
// re-simulate identical points.
type MCSource struct {
	// Base supplies superframe, CSMA parameters, arrival model, run
	// length, seed and worker count.
	Base Config
}

// NewMCSource builds a memoized Monte-Carlo source.
func NewMCSource(base Config) *MCSource {
	return &MCSource{Base: base}
}

// Contention implements Source. It is safe for concurrent use; concurrent
// requests for the same point block on one simulation and share its result.
func (s *MCSource) Contention(payloadBytes int, load float64) Stats {
	key := mcKey{base: s.Base, payload: payloadBytes, loadMilli: int(math.Round(load * 1000))}
	key.base.PayloadBytes = 0
	key.base.TargetLoad = 0
	key.base.Workers = 0
	return mcCache.Get(key, func() Stats {
		cfg := s.Base
		cfg.PayloadBytes = payloadBytes
		cfg.TargetLoad = load
		r := Simulate(cfg)
		return Stats{Tcont: r.MeanContention, NCCA: r.MeanCCAs, PrCF: r.PrCF, PrCol: r.PrCol}
	})
}

// String implements fmt.Stringer.
func (s *MCSource) String() string { return "monte-carlo" }
