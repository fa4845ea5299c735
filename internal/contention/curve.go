package contention

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// Contention implements Source. It is safe for concurrent use; concurrent
// requests for the same point block on one simulation and share its result.
func (s *MCSource) Contention(payloadBytes int, load float64) Stats {
	cfg, key := s.point(payloadBytes, load)
	return mcCache.Get(key, func() Stats { return Simulate(cfg).stats() })
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
// process-wide cache under the same keys and single-flight as
// MCSource.Contention: a cached point, or one another caller is already
// simulating, is shared, never simulated again. The points this call has to
// simulate are cut into their shards, and every shard of every such point
// runs in one engine.Map with Simulate's shard seeds and fold order, so the
// statistics are Simulate's to the bit while a batch of points keeps every
// worker busy instead of blocking all but one on the point they share. Each
// point is folded and published to the cache as soon as its last shard
// ends. Other sources are asked inline, once per lookup, and a lookup
// without a source is skipped, its Stats left as they are.
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
		fl      *fill                         // the points this call simulates
		flights []engine.Flight[mcKey, Stats] // points in flight elsewhere, by lookup
		units   int
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
		cfg = cfg.prepared()
		f := mcCache.Acquire(key)
		switch {
		case f.Ready():
			r.Stats, _ = f.Wait(ctx)
			continue
		case !f.Owner():
			if flights == nil {
				flights = make([]engine.Flight[mcKey, Stats], len(ls))
			}
			flights[i] = f
			continue
		}
		if fl == nil {
			fl = fillPool.Get().(*fill)
		}
		n := cfg.shardCount()
		fl.points = append(fl.points, owned{cfg: cfg, at: i, flight: f, first: units, n: n})
		fl.points[len(fl.points)-1].outstanding.Store(int32(n))
		units += n
	}
	if fl != nil {
		fl.shards = slices.Grow(fl.shards, units)[:units]
		err := engine.Map(ctx, workers, units, fl.unit)
		for k := range fl.points {
			p := &fl.points[k]
			if p.outstanding.Load() == 0 {
				ls[p.at].Stats = p.stats
				continue
			}
			// Canceled: hand the shards of an unfinished point back to
			// the pool and its entry to whoever asks next.
			for _, st := range fl.shards[p.first : p.first+p.n] {
				if st != nil {
					shardPool.Put(st)
				}
			}
			p.flight.Abandon()
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
		if f == (engine.Flight[mcKey, Stats]{}) {
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

// owned is a point one Resolve call simulates: its prepared run, the
// lookup it answers, its cache flight, its span of shard units and, once
// its last shard is folded, its statistics.
type owned struct {
	cfg         Config
	at          int
	flight      engine.Flight[mcKey, Stats]
	first, n    int
	outstanding atomic.Int32
	stats       Stats
}

// fill is the scratch of one Resolve call that simulates: the points it
// owns, the shards of their units, and unit, the shard step engine.Map
// runs, bound to the fill once. Fills are pooled, so a call that
// simulates a point allocates no table and no closure for it.
type fill struct {
	points []owned
	shards []*shard
	unit   func(u int) error
}

var fillPool = sync.Pool{New: func() any {
	f := new(fill)
	f.unit = f.runUnit
	return f
}}

// maxPooledFill bounds the points and shards a pooled fill keeps: a
// larger one, from a grid over many loads, is left to the collector.
const maxPooledFill = 1024

// runUnit simulates shard unit u. The last shard of a point to end folds
// the point and publishes it to the cache.
func (f *fill) runUnit(u int) error {
	// The point whose span holds unit u.
	k := sort.Search(len(f.points), func(k int) bool { return f.points[k].first > u }) - 1
	p := &f.points[k]
	f.shards[u] = p.cfg.runShard(u - p.first)
	if p.outstanding.Add(-1) == 0 {
		p.stats = fold(p.cfg, f.shards[p.first:p.first+p.n]).stats()
		p.flight.Publish(p.stats)
	}
	return nil
}

// release empties f, so it holds no flight and no shard, and returns it to
// the pool.
func (f *fill) release() {
	if cap(f.points) > maxPooledFill || cap(f.shards) > maxPooledFill {
		return
	}
	clear(f.points)
	clear(f.shards)
	f.points, f.shards = f.points[:0], f.shards[:0]
	fillPool.Put(f)
}
