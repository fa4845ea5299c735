//go:build !race

package contention

// Resolving one fresh single-shard point measures no allocation per call:
// its cache entry comes from a chunk of sixteen (one apiece measured one);
// with a point table, a shard table, a shard closure and a heap copy of the
// caller's lookups per call, as the fill once had, it measures five.
const resolveAllocBudget = 1
