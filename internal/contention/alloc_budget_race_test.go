//go:build race

package contention

// The race detector makes sync.Pool drop Puts, so some calls rebuild their
// fill and their shard (a few allocations each); the plain build's budget
// is the gate.
const resolveAllocBudget = 64
