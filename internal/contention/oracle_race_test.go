//go:build race

package contention

// The reference queue's pop scans every pending event, and the race
// detector slows that scan about twentyfold; the oracle table is
// single-goroutine, so under the detector it runs on smaller rows and the
// plain run keeps the full-size table.
const oracleTxnBudget, oracleSFCap = 150, 400
