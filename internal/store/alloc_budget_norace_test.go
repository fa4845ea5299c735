//go:build !race

package store

// A steady-state fresh-key put costs exactly the owned copy of its bytes.
const putTaskAllocBudget = 1
