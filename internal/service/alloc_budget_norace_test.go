//go:build !race

package service

// The HTTP exchange budgets below are measured with the collector off
// (allocsWithoutGC): with it on, sync.Pool refills after collections add a
// count that follows the heap size and the GC timing, not the code path.

// Serving and reading the 1,000-line grid shard from a warm worker store
// measures 166 to 167 allocations per exchange (the request and response,
// the plan compile, the stream's timer and a few dozen coalesced chunks);
// about 175 with the collector on, a CC2420 built per compile made it 177,
// and decoding and keying the TaskRequest by reflection, as the worker once
// did, about 220. The budget sits just above the reading, far below one per
// line, so a per-line flush or any other per-line allocation fails it too.
const taskShardAllocBudget = 175

// A cold distributed 1,000-point grid through a coordinator and two
// workers in one process measures 519 to 520 allocations per query (533 to
// 537 with the collector on), both sides of its two shard exchanges (one
// per worker) included. With one
// store entry per task line, which three stores fill, it measured about
// 605, and cutting the plan into two shards per worker, four exchanges,
// about 925; one exchange more (about 150 allocations) or a readiness
// probe per worker and query (about 100 each) fails the budget.
const distQueryAllocBudget = 540

// A traced repeat of a stored distributed 1,000-point grid measures 163
// allocations: the request, the plan compile, the prefill's one Metrics
// slab, the trace and the response. With the collector on it read 200 to
// 221, the rest sync.Pool refills after collections, which come more often
// the smaller the fleet's live heap. One MetricsWire per store hit, as the
// prefill once decoded them, measures about 1,270.
const prefillAllocBudget = 175

// A whole-query store hit on a stored 100-point grid, through ServeHTTP with
// an httptest recorder, measures 26 allocations, about eleven of them the
// recorder's and the request's own, with or without a request timeout.
// Setting up the request deadline on every request, hits included, cost
// five more under a timeout, and the decoded query escaping to the heap one
// more (27 without a timeout, 32 with one); compiling the grid before the
// lookup, as the handler once did, and the request id, series key and
// header allocations since trimmed measured 48. The budget is the
// measurement: AllocsPerRun truncates its mean, so a pool refill now and
// then does not move it, and any of those allocations back fails it.
const queryHitAllocBudget = 26

// A cold 10-task grid over one contention configuration measures 55
// allocations per query through ServeHTTP with a store, a cold 5,000-task
// grid over ten measures 62: a gap of 7, mostly the recorder's response
// buffer doubling up to the larger body. With one store entry per task
// line, carved from chunks, and a contention cache entry per configuration
// they measured 55 and 245.
const coldGridSizeAllocSlack = 20

// A cold 16-replica, 100-node, 8-superframe /v2/query/stream with Workers 2
// measures 69 to 71 allocations per query: the request, the plan compile,
// one payload slab for the sixteen replicas, the stream's lines and the
// summary. Boxing each replica's payload and a scratch slice per merged
// statistic measured 96 to 97; one allocation per replica fails the budget.
const streamReplicasAllocBudget = 73
