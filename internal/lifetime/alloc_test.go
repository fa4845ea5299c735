package lifetime

import (
	"testing"

	"dense802154/internal/netsim"
)

// TestLifetimeRunAllocBudget is the allocation-regression guard for the
// lifetime integrator at the benchmark workload's shape (a 24-node CR2032
// network integrated until the last node dies, ~39 live epochs). A run
// holds one pooled netsim arena for all its epochs, so its allocations are
// the run's own slices and do not grow with the epoch count; a regression
// that puts set-up or a Result back on the per-epoch path costs several
// allocations per epoch and fails here.
func TestLifetimeRunAllocBudget(t *testing.T) {
	cfg := Config{Sim: netsim.Config{Nodes: 24}}
	// Warm the run pool and size the arena.
	for i := 0; i < 2; i++ {
		Run(cfg)
	}
	seed := int64(100)
	epochs := 0
	allocs := testing.AllocsPerRun(10, func() {
		c := cfg
		c.Sim.Seed = seed
		seed++
		epochs += Run(c).Epochs
	})
	if epochs < 10*16 {
		t.Fatalf("runs averaged %d live epochs; the budget must be measured over many epochs", epochs/10)
	}
	if allocs > lifetimeRunAllocBudget {
		t.Fatalf("Run allocated %v per run, budget %d", allocs, lifetimeRunAllocBudget)
	}
	t.Logf("Run steady-state allocations per run: %v (%d live epochs per run)", allocs, epochs/10)
}
