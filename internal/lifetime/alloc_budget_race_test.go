//go:build race

package lifetime

// Under the race detector sync.Pool drops a quarter of Puts, so each
// measured run pays a cold ~50-alloc arena with probability 1/4: the mean
// over ten runs lands between 10 and 35 in all but rare draws. The wider
// budget absorbs that while still failing on two allocations per epoch
// (~80 per run); the no-race CI step holds the steady-state number.
const lifetimeRunAllocBudget = 60
