//go:build !race

package dist_test

// Reading the 1,000-line grid shard costs 6 allocations per shard (the read
// buffer, the stream, its result and metrics slabs); the budget leaves a
// few spare, so one allocation on even a handful of lines fails it.
const lineStreamAllocBudget = 12
