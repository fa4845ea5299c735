//go:build !race

package netsim

// Steady state measures ~5 allocs; the budget leaves headroom for a GC
// emptying the sync.Pool mid-run without tolerating a setup regression
// (which costs one-plus per node).
const runAllocBudget = 16
