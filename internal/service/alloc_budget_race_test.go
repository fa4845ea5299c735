//go:build race

package service

// The race detector makes sync.Pool drop Puts, which adds a few dozen
// allocations per exchange (about 205 with the collector off); the budget
// still sits below one per line.
const taskShardAllocBudget = 400

// Under the race detector the same distributed query, two shard exchanges,
// measures about 4,700 allocations with the collector off (about 5,200
// with four exchanges and the collector on); the budget only bounds it,
// and the plain build's budget is the gate.
const distQueryAllocBudget = 6500

// The prefill draws nothing per task from a sync.Pool, so the race
// detector adds only a few per-request pool misses (about 170 to 185 with
// the collector off).
const prefillAllocBudget = 400

// The store hit draws only the request body buffer from a sync.Pool, so the
// race detector adds about two allocations (28; 29 with the decoded query on
// the heap, 34 with a per-request deadline, 50 when it compiled).
const queryHitAllocBudget = 30

// The race detector makes sync.Pool drop Puts, so a cold grid's task
// encodes cost two allocations per task (a gap of about 10,000 between the
// 10- and the 5,000-task grid); the budget only bounds it, and the plain
// build's budget is the gate.
const coldGridSizeAllocSlack = 11000

// Under the race detector dropped Puts cost the stream fresh simulator
// runners (about sixty allocations each) and encode buffers: the cold
// 16-replica stream reads 215 to 235 with the collector off. The budget
// only bounds it; the plain build's budget is the gate.
const streamReplicasAllocBudget = 500
