//go:build !race

package netsim

// Steady state measures 1 alloc (the Result's histogram copy) on a
// configuration whose defaults are resolved; resolving them inside every
// run cost four more (a CC2420, a boxed BER model and deployment). The
// budget leaves headroom for a GC emptying the sync.Pool mid-run (a cold
// arena costs ~60 allocations at 50 nodes, spread over the measured runs)
// without tolerating a setup regression (which costs one-plus per node).
const runAllocBudget = 4
