//go:build race

package service

// The race detector makes sync.Pool drop Puts, which adds a few dozen
// allocations per exchange (about 240); the budget still sits below one per
// line.
const taskShardAllocBudget = 400

// Under the race detector the same distributed query measures about 5,200
// allocations (about 5,400 with reflective request coding, 5,500 with
// per-query probes); the budget only bounds it, and the plain build's
// budget is the gate.
const distQueryAllocBudget = 6500

// The prefill draws nothing per task from a sync.Pool, so the race
// detector adds only a few dozen per-request pool misses (about 270).
const prefillAllocBudget = 400

// The store hit draws only the request body buffer from a sync.Pool, so the
// race detector adds about two allocations (29; 50 when it compiled).
const queryHitAllocBudget = 38
