//go:build !race

package store

// A put into a table sized for its plan copies its line into the table's
// slab and indexes it: it allocates nothing.
const putTaskAllocBudget = 0

// Keying a query appends its canonical bytes into a stack buffer and hashes
// them in place: it allocates nothing.
const keyForAllocBudget = 0
