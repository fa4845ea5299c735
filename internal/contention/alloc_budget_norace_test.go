//go:build !race

package contention

// Resolving one fresh single-shard point measures one allocation per call,
// its cache entry; with a point table, a shard table, a shard closure and a
// heap copy of the caller's lookups per call, as the fill once had, it
// measures five.
const resolveAllocBudget = 2
