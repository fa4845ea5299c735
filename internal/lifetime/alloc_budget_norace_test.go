//go:build !race

package lifetime

// Steady state measures 1 alloc per run, the curve, on a configuration
// whose simulator defaults are resolved. The run's mask, battery, budget
// and energy slices and its Epochs handle live in the pooled arena; they
// and the per-run defaults (a CC2420, a boxed BER model and deployment) cost
// nine more before. The budget leaves headroom for a GC emptying the run
// pool mid-measurement (a cold arena costs ~50 at 24 nodes, spread over the
// measured runs) without tolerating even one allocation per epoch (~39 per
// run).
const lifetimeRunAllocBudget = 8
