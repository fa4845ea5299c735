//go:build !race

package service

// Serving and reading the 1,000-line grid shard costs about 230 allocations
// per exchange (the request and response, the plan compile, the stream's
// timer and a few dozen coalesced chunks); the budget sits well below one
// per line, so a per-line flush or any other per-line allocation fails it.
const taskShardAllocBudget = 400

// A cold distributed 1,000-point grid through a coordinator and two
// workers in one process measures about 1,150 allocations per query, both
// sides of its four shard exchanges included. Probing both workers on every
// query, as admission once did, measures about 1,340; the budget sits
// between the two.
const distQueryAllocBudget = 1250
