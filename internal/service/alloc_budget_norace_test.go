//go:build !race

package service

// Serving and reading the 1,000-line grid shard costs about 190 allocations
// per exchange (the request and response, the plan compile, the stream's
// timer and a few dozen coalesced chunks); decoding and keying the
// TaskRequest by reflection, as the worker once did, measures about 220.
// The budget sits between the two, far below one per line, so a per-line
// flush or any other per-line allocation fails it too.
const taskShardAllocBudget = 205

// A cold distributed 1,000-point grid through a coordinator and two
// workers in one process measures about 985 allocations per query, both
// sides of its four shard exchanges included. Encoding, decoding and keying
// its requests by reflection, as coordinator and workers once did, measures
// about 1,150 (and probing both workers on every query about 1,340); the
// budget sits between the two.
const distQueryAllocBudget = 1070

// A traced repeat of a stored distributed 1,000-point grid measures about
// 250 allocations: the request, the plan compile, the prefill's one Metrics
// slab, the trace and the response. One MetricsWire per store hit, as the
// prefill once decoded them, measures about 1,270.
const prefillAllocBudget = 400

// A whole-query store hit on a stored 100-point grid, through ServeHTTP with
// an httptest recorder, measures 27 allocations, about eleven of them the
// recorder's and the request's own. Compiling the grid before the lookup,
// as the handler once did, and the request id, series key and header
// allocations since trimmed measured 48; the budget sits between the two.
const queryHitAllocBudget = 36
