//go:build !race

package query

// Steady state is exactly one allocation (the returned copy) for both
// paths; the whole-body budget keeps one allocation of headroom.
const (
	resultSetEncodeAllocBudget = 2
	taskEncodeAllocBudget      = 1
)
