//go:build !race

package service

// Serving and reading the 1,000-line grid shard costs about 230 allocations
// per exchange (the request and response, the plan compile, the stream's
// timer and a few dozen coalesced chunks); the budget sits well below one
// per line, so a per-line flush or any other per-line allocation fails it.
const taskShardAllocBudget = 400
