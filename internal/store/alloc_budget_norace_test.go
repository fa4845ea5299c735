//go:build !race

package store

// A steady-state fresh-key put copies its bytes into a shared payload chunk
// and takes its entry off the free list: it allocates nothing of its own.
const putTaskAllocBudget = 0

// Keying a query appends its canonical bytes into a stack buffer and hashes
// them in place: it allocates nothing.
const keyForAllocBudget = 0
