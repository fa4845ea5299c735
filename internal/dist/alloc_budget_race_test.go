//go:build race

package dist_test

// The line reader draws nothing from a sync.Pool, so the race detector does
// not change its count: the budget matches the plain build.
const lineStreamAllocBudget = 12
