//go:build race

package service

// The race detector makes sync.Pool drop Puts, which adds a few dozen
// allocations per exchange (about 280); the budget still sits below one per
// line.
const taskShardAllocBudget = 400

// Under the race detector the same distributed query measures about 5,400
// allocations, with or without per-query probes (about 5,500); the budget
// only bounds it, and the plain build's budget is the gate.
const distQueryAllocBudget = 6500
