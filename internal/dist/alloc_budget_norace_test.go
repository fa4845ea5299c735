//go:build !race

package dist_test

// Reading the 1,000-line grid shard costs a few allocations per shard (the
// read buffer, the stream, its result and metrics slabs); the budget of one
// per line fails as soon as any per-line allocation returns.
const lineStreamAllocBudget = 1000
