//go:build !race

package query

// Steady state is exactly one allocation (the returned copy) for both
// encode paths; the whole-body budget keeps one allocation of headroom.
// Compiling the 1,000-point grid costs about twenty allocations, all of
// them per plan rather than per point; the budget stays far below the
// thousands a per-point allocation would add. Executing that grid with a
// store attached costs about a dozen allocations, all per plan. Decoding
// that grid's query body costs two: the pointee arena and the payload
// values (the strict encoding/json decode took 31). Executing a cold
// 16-replica plan with a store attached costs about 120 allocations, the
// simulator's and a few per replica; boxing each replica's in-process
// result beside its wire payload cost 16 more. A body spliced from the
// results' stored lines is one allocation of its exact size.
const (
	resultSetEncodeAllocBudget = 2
	splicedEncodeAllocBudget   = 1
	taskEncodeAllocBudget      = 1
	compileGridAllocBudget     = 64
	decodeTaskAllocBudget      = 3
	decodeQueryAllocBudget     = 12
	executeGridAllocBudget     = 64
	executeReplicasAllocBudget = 128
)
