package netsim

import (
	"context"
	"testing"
)

// TestRunAllocBudget is the allocation-regression guard for the pooled run
// path: once the runner pool is warm, a Run call on a configuration whose
// defaults are already resolved (as RunReplicas and the query plans hand
// it) must stay within a fixed allocation budget — the Result's histogram
// copy, versus the ~1.5 per node a cold arena pays. A regression that
// reintroduces per-run device, default or slice setup fails this test
// rather than silently landing.
func TestRunAllocBudget(t *testing.T) {
	cfg := Config{Nodes: 50, Superframes: 2, Seed: 7}.WithDefaults()
	// Warm the pool and size the reusable arena storage.
	for i := 0; i < 3; i++ {
		Run(cfg)
	}
	seed := int64(100)
	allocs := testing.AllocsPerRun(20, func() {
		c := cfg
		c.Seed = seed
		seed++
		Run(c)
	})
	// The budget (build-tagged: the race detector makes sync.Pool lossy)
	// tolerates a GC emptying the pool mid-run but not a setup regression
	// (which costs one-plus per node). The telemetry fold
	// (foldRunMetrics: six atomic ops once per run) must not move this —
	// run counters live in plain env ints on the hot paths.
	if allocs > runAllocBudget {
		t.Fatalf("Run allocated %v per run, budget %d", allocs, runAllocBudget)
	}
	t.Logf("Run steady-state allocations per run: %v", allocs)
}

// TestRunTelemetryFold checks that every run folds its counters into the
// package totals exactly once, with values consistent with the run's own
// Result, and that the fold itself adds no allocations (covered by
// TestRunAllocBudget, which runs with folding active).
func TestRunTelemetryFold(t *testing.T) {
	cfg := Config{Nodes: 20, Superframes: 2, Seed: 11}
	runs0 := runsTotal.Value()
	events0 := eventsTotal.Value()
	cca0 := ccaTotal.Value()
	res := Run(cfg)
	if got := runsTotal.Value() - runs0; got != 1 {
		t.Errorf("runs_total advanced by %d, want 1", got)
	}
	if eventsTotal.Value() == events0 {
		t.Error("events_total did not advance")
	}
	// Every transmission passed at least one CCA, so the CCA delta must
	// dominate the run's transmission count.
	ccaDelta := ccaTotal.Value() - cca0
	if ccaDelta < uint64(res.Transmissions) {
		t.Errorf("cca_attempts_total advanced by %d, below %d transmissions", ccaDelta, res.Transmissions)
	}
	if heapDepthMax.Value() <= 0 {
		t.Errorf("heap_depth_max = %d, want > 0", heapDepthMax.Value())
	}
}

// TestRunReplicasAllocBudget guards the replica sweep: n pooled runs plus
// merge bookkeeping must stay near n times the single-run budget, so the
// recycling win survives in the workload that motivated it.
func TestRunReplicasAllocBudget(t *testing.T) {
	cfg := Config{Nodes: 50, Superframes: 2, Seed: 7}
	const n = 4
	if _, err := RunReplicas(context.Background(), cfg, n, 1); err != nil {
		t.Fatal(err)
	}
	seed := int64(500)
	allocs := testing.AllocsPerRun(10, func() {
		c := cfg
		c.Seed = seed
		seed++
		if _, err := RunReplicas(context.Background(), c, n, 1); err != nil {
			t.Fatal(err)
		}
	})
	// n pooled runs (at the build-tagged per-run budget) plus the defaults
	// resolved once per batch, the seed slice, the arena channel, the
	// engine.MapSlice result slice and the eight ReplicaStat observation
	// slices: 23 in all at steady state, 35 when every run resolved its own
	// defaults.
	const budget = runAllocBudget*n + 20
	if allocs > budget {
		t.Fatalf("RunReplicas(n=%d) allocated %v per call, budget %d", n, allocs, budget)
	}
	t.Logf("RunReplicas(n=%d) steady-state allocations per call: %v", n, allocs)
}
