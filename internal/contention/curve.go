package contention

import (
	"context"
	"slices"
	"time"

	"dense802154/internal/engine"
	"dense802154/internal/stats"
)

// Stats is the tuple of contention-side quantities the analytical energy
// model consumes (the paper's T̄cont, N̄CCA, Pr_cf, Pr_col).
type Stats struct {
	Tcont time.Duration
	NCCA  float64
	PrCF  float64
	PrCol float64
}

// Tally is the one definition of the four Stats; both simulators feed it.
// A procedure is one run of slotted CSMA/CA, from the packet being ready to
// contend to a grant or a channel access failure: its length averages into
// T̄cont, its CCAs into N̄CCA, and it is one trial of Pr_cf. A transmission
// is one granted frame and one trial of Pr_col. netsim reports every
// procedure and transmission, retries included; the Monte-Carlo has no
// retries and reports one procedure per transaction.
type Tally struct {
	dur, ccas stats.Accumulator // per procedure: seconds, CCAs
	cf, col   stats.Proportion  // failures per procedure, collisions per transmission
}

// Procedure records one procedure that ended in a grant or an access failure.
func (t *Tally) Procedure(seconds float64, ccas int, granted bool) {
	t.dur.Add(seconds)
	t.ccas.Add(float64(ccas))
	t.cf.Observe(!granted)
}

// Transmission records whether a granted transmission collided.
func (t *Tally) Transmission(collided bool) { t.col.Observe(collided) }

// Stats reports the tallied statistics; each is zero before its first event.
func (t *Tally) Stats() Stats {
	return Stats{Tcont: time.Duration(t.dur.Mean() * float64(time.Second)),
		NCCA: t.ccas.Mean(), PrCF: t.cf.Value(), PrCol: t.col.Value()}
}

// Failures reports the procedures that ended in an access failure.
func (t *Tally) Failures() int { return t.cf.Successes() }

// Collisions reports the transmissions that collided.
func (t *Tally) Collisions() int { return t.col.Successes() }

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
// overridden. Point i runs under seed base.Seed + i·7919, and every shard of
// every point runs in one fill on base.Workers goroutines, so the curve is
// identical at any worker count. The points bypass the contention cache.
func BuildCurve(payload int, loads []float64, base Config) Curve {
	f := fillPool.Get().(*fill)
	for i, l := range loads {
		cfg := base
		cfg.PayloadBytes = payload
		cfg.TargetLoad = l
		cfg.Seed = base.Seed + int64(i)*7919
		f.add(cfg.prepared(), i, flight{})
	}
	_ = f.run(context.Background(), base.Workers) // cannot fail uncanceled
	n := len(loads)
	c := Curve{
		PayloadBytes: payload,
		Loads:        slices.Clone(loads),
		TcontSec:     make([]float64, 0, n),
		NCCA:         make([]float64, 0, n),
		PrCF:         make([]float64, 0, n),
		PrCol:        make([]float64, 0, n),
		Results:      make([]Result, 0, n),
	}
	for k := range f.points {
		r := f.points[k].res
		c.TcontSec = append(c.TcontSec, r.MeanContention.Seconds())
		c.NCCA = append(c.NCCA, r.MeanCCAs)
		c.PrCF = append(c.PrCF, r.PrCF)
		c.PrCol = append(c.PrCol, r.PrCol)
		c.Results = append(c.Results, r)
	}
	f.release()
	return c
}

// mcKey identifies one Monte-Carlo characterization point in the shared
// contention cache: the full simulation config (with the per-point fields
// normalized out) plus the payload and the exact load the point is
// simulated at. Workers is excluded because the sharded simulation is
// worker-count independent — the same statistics are produced, and may be
// shared, at any parallelism.
type mcKey struct {
	base    Config
	payload int
	load    float64
}

// mcCache is the process-wide memoized contention cache: every MCSource —
// and therefore every sweep of the analytical model — shares it, so
// identical contention statistics are simulated once per sweep instead of
// once per point, even when many engine workers request the same point
// concurrently (single-flight semantics).
var mcCache engine.Cache[mcKey, Stats]

// flight is a point's claim on its mcCache entry; the zero flight is a point
// run outside the cache.
type flight = engine.Flight[mcKey, Stats]

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
// on demand at the requested (payload, load) point; results are cached
// under the exact point in the process-wide shared cache, so sweeps of the
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

// point returns the run config of one (payload, load) point and its cache
// key.
func (s *MCSource) point(payloadBytes int, load float64) (Config, mcKey) {
	cfg := s.Base
	cfg.PayloadBytes = payloadBytes
	cfg.TargetLoad = load
	key := mcKey{base: s.Base, payload: payloadBytes, load: load}
	key.base.PayloadBytes = 0
	key.base.TargetLoad = 0
	key.base.Workers = 0
	return cfg, key
}

// Contention implements Source: it is one Resolve lookup on Base.Workers
// goroutines. It is safe for concurrent use; concurrent requests for the
// same point block on one simulation and share its result.
func (s *MCSource) Contention(payloadBytes int, load float64) Stats {
	ls := [1]Lookup{{Source: s, PayloadBytes: payloadBytes, Load: load}}
	_ = Resolve(context.Background(), s.Base.Workers, ls[:]) // cannot fail uncanceled
	return ls[0].Stats
}

// String implements fmt.Stringer.
func (s *MCSource) String() string { return "monte-carlo" }

// stats is the Source view of a run.
func (r Result) stats() Stats {
	return Stats{Tcont: r.MeanContention, NCCA: r.MeanCCAs, PrCF: r.PrCF, PrCol: r.PrCol}
}

// Lookup is one contention lookup: a source's statistics at a (payload,
// load) point, which Resolve fills in.
type Lookup struct {
	Source       Source
	PayloadBytes int
	Load         float64
	Stats        Stats
}

// Resolve answers a batch of lookups on at most workers goroutines (≤ 0 ⇒
// NumCPU), filling in each one's Stats. Monte-Carlo lookups go through the
// process-wide cache under its single-flight: a cached point, or one
// another caller is already simulating, is shared, never simulated again.
// The points this call has to simulate run in one fill, so the statistics
// are Simulate's to the bit while a batch of points keeps every worker busy
// instead of blocking all but one on the point they share; each point is
// published to the cache as soon as its last shard ends. Other sources are
// asked inline, once per lookup, and a lookup without a source is skipped,
// its Stats left as they are.
//
// Once ctx is done no further shard starts: Resolve returns ctx.Err() after
// the shards in flight end, abandons the cache entries of the points it
// did not finish, so their waiters claim them afresh, and stops waiting on
// points other callers simulate. The Stats of lookups it did not answer
// are then unspecified.
func Resolve(ctx context.Context, workers int, ls []Lookup) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Check every run before claiming any flight: a run that panics must
	// not leave other callers waiting on an entry this call owns.
	for i := range ls {
		if s, ok := ls[i].Source.(*MCSource); ok {
			cfg, _ := s.point(ls[i].PayloadBytes, ls[i].Load)
			cfg.prepared()
		}
	}
	var (
		fl      *fill    // the points this call simulates
		flights []flight // points in flight elsewhere, by lookup
	)
	for i := range ls {
		r := &ls[i]
		s, ok := r.Source.(*MCSource)
		if !ok {
			if r.Source != nil {
				r.Stats = r.Source.Contention(r.PayloadBytes, r.Load)
			}
			continue
		}
		cfg, key := s.point(r.PayloadBytes, r.Load)
		f := mcCache.Acquire(key)
		switch {
		case f.Ready():
			r.Stats, _ = f.Wait(ctx)
			continue
		case !f.Owner():
			if flights == nil {
				flights = make([]flight, len(ls))
			}
			flights[i] = f
			continue
		}
		if fl == nil {
			fl = fillPool.Get().(*fill)
		}
		fl.add(cfg.prepared(), i, f)
	}
	if fl != nil {
		err := fl.run(ctx, workers)
		for k := range fl.points {
			p := &fl.points[k]
			ls[p.at].Stats = p.res.stats()
		}
		fl.release()
		if err != nil {
			return err
		}
	}
	// Every owned point is published by now, so waiting on the points
	// other callers own cannot deadlock against them. A point its owner
	// abandoned is resolved again, by this call if nobody else claims it.
	var retry []Lookup
	var retryAt []int
	for i := range flights {
		f := flights[i]
		if f == (flight{}) {
			continue
		}
		st, ok := f.Wait(ctx)
		if !ok {
			if err := ctx.Err(); err != nil {
				return err
			}
			retry = append(retry, ls[i])
			retryAt = append(retryAt, i)
			continue
		}
		ls[i].Stats = st
	}
	if retry == nil {
		return nil
	}
	if err := Resolve(ctx, workers, retry); err != nil {
		return err
	}
	for k, i := range retryAt {
		ls[i].Stats = retry[k].Stats
	}
	return nil
}
