package contention

import (
	"context"
	"testing"

	"dense802154/internal/mac"
)

// TestSimulateAllocBudget is the allocation-regression guard for the
// Monte-Carlo event loop: once the shard pool is warm, a serial Simulate
// call must stay within a fixed allocation budget (the shard-pointer table
// plus pool bookkeeping — a couple of allocations, versus hundreds per
// superframe before the value-typed rewrite). A regression that reintroduces
// per-event or per-packet boxing fails this test rather than silently
// landing.
func TestSimulateAllocBudget(t *testing.T) {
	cfg := Config{TargetLoad: 0.433, Superframes: 8, Seed: 1, Workers: 1}
	// Warm the shard pool and size the reusable arrays.
	for i := 0; i < 3; i++ {
		Simulate(cfg)
	}
	seed := int64(100)
	allocs := testing.AllocsPerRun(20, func() {
		c := cfg
		c.Seed = seed
		seed++
		Simulate(c)
	})
	// Steady state measures ~2 allocs; the budget leaves headroom for a GC
	// emptying the sync.Pool mid-run without tolerating a boxing
	// regression (which costs hundreds).
	const budget = 40
	if allocs > budget {
		t.Fatalf("Simulate allocated %v per run, budget %d", allocs, budget)
	}
	t.Logf("Simulate steady-state allocations per run: %v", allocs)
}

// TestSimulateShardAllocFree pins the shard event loop itself at zero
// allocations: once a pooled shard has grown its population, arrival band,
// calendar ring and overflow band to the largest configuration in a
// rotation, running any configuration of that rotation again allocates
// nothing. The rotation switches beacon order (6 → 10, so the arrival
// band spans up to 19 slot bits), payload (ring horizon) and CSMA variant
// (the MaxBE 12 one fills the overflow band).
func TestSimulateShardAllocFree(t *testing.T) {
	var cfgs []Config
	for _, bo := range []uint8{6, 8, 10} {
		sf, err := mac.NewSuperframe(bo, bo)
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range []int{20, 120} {
			for _, p := range []mac.CSMAParams{mac.PaperParams(), {MinBE: 3, MaxBE: 12, MaxBackoffs: 10, CW: 2}} {
				cfgs = append(cfgs, Config{
					PayloadBytes: payload, Superframe: sf, CSMA: p, TargetLoad: 0.433,
				}.withDefaults())
			}
		}
	}
	st := new(shard)
	run := func() {
		for i, cfg := range cfgs {
			simulateShard(cfg, 2, int64(i), st)
		}
	}
	run()
	if cap(st.over) == 0 {
		t.Fatal("no configuration parked an event: the overflow band went unexercised")
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("warm shard allocated %v per rotation of %d configurations, want 0", allocs, len(cfgs))
	}
}

// BenchmarkSimulateShard measures the per-shard event loop in isolation —
// the unit of Monte-Carlo parallelism (8 superframes at case-study load).
func BenchmarkSimulateShard(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{TargetLoad: 0.433, Superframes: shardSuperframes, Seed: 1, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Simulate(cfg)
	}
}

// TestResolveAllocBudget holds the contention fill of a small batch to its
// budget: resolving one fresh single-shard Monte-Carlo point, serially,
// allocates its cache entry and nothing per call besides — no point table,
// no shard table, no shard closure, and no heap copy of the caller's
// lookups.
func TestResolveAllocBudget(t *testing.T) {
	src := NewMCSource(Config{Superframes: shardSuperframes, Seed: 11})
	load := 0.2
	resolve := func() {
		load += 1e-6 // a fresh cache key every call
		ls := []Lookup{{Source: src, PayloadBytes: 40, Load: load}}
		if err := Resolve(context.Background(), 1, ls); err != nil {
			t.Fatal(err)
		}
		if ls[0].Stats == (Stats{}) {
			t.Fatal("lookup left unresolved")
		}
	}
	for i := 0; i < 3; i++ {
		resolve() // warm the shard and fill pools
	}
	allocs := testing.AllocsPerRun(50, resolve)
	if allocs > resolveAllocBudget {
		t.Fatalf("resolving one fresh single-shard point allocated %v per call, budget %d", allocs, resolveAllocBudget)
	}
	t.Logf("Resolve (one fresh single-shard point): %v allocs/call", allocs)
}
