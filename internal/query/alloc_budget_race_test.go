//go:build race

package query

// Under the race detector sync.Pool intentionally drops a quarter of Puts,
// so some encodes regrow their scratch buffer from empty (~40 appends for
// the 1 MB grid body, ~6 for one task). The wider budgets absorb that while
// still failing on a return to per-field boxing (~50 per task). Compile
// draws nothing from a pool, so its budget matches the plain build.
// Executing the grid encodes every task into the store through the same
// pool, which costs about two regrowth allocations per task here (~2,000
// per plan); a return to the two per-task allocations the slab removed
// would read ~4,000. The request reader draws nothing from a pool, so its
// budget matches the plain build. The 16-replica plan reads 155–175 here
// and the 8-replica lifetime plan 115–145: dropped Puts cost fresh
// simulator runners and encode buffers.
const (
	resultSetEncodeAllocBudget = 64
	splicedEncodeAllocBudget   = 8
	taskEncodeAllocBudget      = 8
	compileGridAllocBudget     = 12
	decodeTaskAllocBudget      = 3
	decodeQueryAllocBudget     = 12
	executeGridAllocBudget     = 3000
	executeLifetimeAllocBudget = 400
	executeReplicasAllocBudget = 400
)
