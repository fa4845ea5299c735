//go:build !race

package contention

// oracleTxnBudget sizes each row of TestCalendarMatchesReference to about
// that many transactions (at least one superframe); rows whose single
// superframe would offer more than oracleSFCap packets are left out.
const oracleTxnBudget, oracleSFCap = 600, 1500
