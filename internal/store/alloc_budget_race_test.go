//go:build race

package store

// The store draws nothing from a sync.Pool, so the race detector does not
// change its allocations and the budget matches the plain build.
const putTaskAllocBudget = 0

// Keying draws nothing from a pool either: the budget matches the plain
// build.
const keyForAllocBudget = 0
