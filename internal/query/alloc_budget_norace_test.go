//go:build !race

package query

// Steady state is exactly one allocation (the returned copy) for both encode
// paths; the whole-body budget keeps one allocation of headroom. Compiling
// the 1,000-point grid costs ten allocations, all of them per plan rather
// than per point; a CC2420 built per compile instead of the shared baseline
// cost two more, a heap copy of the query, which the kind/field check's
// table of funcs forced, one more, building the §5 defaults (a CC2420, a
// boxed Eq1, a Monte-Carlo source) only to replace them five more before
// that, and a per-point allocation would add thousands. Executing that grid
// with a store attached costs about a dozen allocations, all per plan.
// Decoding that grid's query body costs two: the pointee arena and the
// payload values (the strict encoding/json decode took 31). Executing a cold
// 16-replica plan with a store attached costs 12 allocations, all per plan:
// the replicas' Sim payloads live in one slab per execution and the summary
// folds them without a scratch slice per statistic. A boxed payload per
// replica instead of the slab, eight scratch slices and engine.Map's
// separate counter, flag, error slice, wait group and per-goroutine closures
// cost 27 more; building each run's default radio, BER model and deployment
// and copying out the attempts histogram the wire drops cost 80 more before
// that, and boxing each replica's in-process result beside its wire payload
// 16 more. Its lifetime twin, 8 replicas, costs 13: each run writes its
// curve once, straight into its segment of the execution's curve buffer.
// Three allocations per replica (the run's curve, its wire copy and the
// boxed payload) instead of the two buffers, four scratch slices and
// engine.Map's state cost 30 more; per-run defaults, per-run battery slices
// and epoch handles and rebuilding every replica's curve for the summary
// cost 80 more before that. A body spliced from the results' stored lines is
// one allocation of its exact size.
const (
	resultSetEncodeAllocBudget = 2
	splicedEncodeAllocBudget   = 1
	taskEncodeAllocBudget      = 1
	compileGridAllocBudget     = 10
	decodeTaskAllocBudget      = 3
	decodeQueryAllocBudget     = 12
	executeGridAllocBudget     = 64
	executeLifetimeAllocBudget = 15
	executeReplicasAllocBudget = 14
)
