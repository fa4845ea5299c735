//go:build !race

package lifetime

// Steady state measures ~10 allocs per run: the run's own mask, battery,
// budget and energy slices, the curve, the Epochs handle and the
// default-config boxing. The budget leaves headroom for a GC emptying the
// run pool mid-measurement (a cold arena costs ~50 at 24 nodes, spread over
// the measured runs) without tolerating even one allocation per epoch
// (~39 per run).
const lifetimeRunAllocBudget = 20
