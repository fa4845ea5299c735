package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheCounterConsistencyUnderRace hammers one LRU-bounded cache from
// many concurrent clients — lookups over a key space larger than the
// bound, interleaved with limit churn, Stats snapshots and a Reset — and
// asserts the counters stayed coherent: every lookup was classified as
// exactly one hit or miss, evictions never exceeded insertions, and the
// final entry count respects the bound. Run it with -race (CI does) to
// also prove the single-flight compute path is data-race free.
func TestCacheCounterConsistencyUnderRace(t *testing.T) {
	const (
		clients = 8
		lookups = 2000
		keys    = 64
		limit   = 16
	)
	var c Cache[int, int]
	c.SetLimit(limit)

	var (
		total    atomic.Uint64 // lookups issued across all clients
		computes atomic.Uint64 // times a compute function actually ran
		wg       sync.WaitGroup
	)
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			defer wg.Done()
			rng := NewRNG(DeriveSeed(99, int64(w)))
			for i := 0; i < lookups; i++ {
				k := rng.Intn(keys)
				total.Add(1)
				v := get(&c, k, func() int {
					computes.Add(1)
					return k * 10
				})
				if v != k*10 {
					t.Errorf("get(%d) = %d", k, v)
					return
				}
				// Sprinkle management operations through the lookup storm.
				switch {
				case i%701 == 0:
					c.SetLimit(limit / 2)
				case i%703 == 0:
					c.SetLimit(limit)
				case i%509 == 0:
					_ = c.Stats()
					_ = c.Len()
				case w == 0 && i == lookups/2:
					c.Reset()
				}
			}
		}(w)
	}
	wg.Wait()

	c.SetLimit(limit) // settle the bound now that nothing is in flight
	s := c.Stats()
	if got, want := s.Hits+s.Misses, total.Load(); got != want {
		t.Errorf("hits (%d) + misses (%d) = %d, want %d lookups", s.Hits, s.Misses, got, want)
	}
	// Every miss creates an entry and runs its compute exactly once
	// (single flight); a Reset may orphan an in-flight entry whose get
	// was already counted, but computes can never exceed misses.
	if computes.Load() > s.Misses {
		t.Errorf("computes %d > misses %d: a compute ran without a recorded miss", computes.Load(), s.Misses)
	}
	if s.Evictions > s.Misses {
		t.Errorf("evictions %d > insertions %d", s.Evictions, s.Misses)
	}
	if s.Entries > limit {
		t.Errorf("entries %d exceed settled limit %d", s.Entries, limit)
	}
	if s.Entries != c.Len() {
		t.Errorf("Stats.Entries %d != Len %d at rest", s.Entries, c.Len())
	}
	if s.Limit != limit {
		t.Errorf("Stats.Limit = %d, want %d", s.Limit, limit)
	}
	// The workload guarantees far more lookups than distinct keys, so both
	// classes must be represented.
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("degenerate counters: hits %d, misses %d", s.Hits, s.Misses)
	}
	if s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Errorf("hit rate %v outside (0,1)", s.HitRate())
	}
}
