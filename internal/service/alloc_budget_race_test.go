//go:build race

package service

// The race detector makes sync.Pool drop Puts, which adds a few dozen
// allocations per exchange (about 280); the budget still sits below one per
// line.
const taskShardAllocBudget = 400
