package mac

import (
	"fmt"
)

// Rand is the minimal random source a Transaction draws its backoff delays
// from. Both *math/rand.Rand and *engine.RNG satisfy it; the interface keeps
// this package free of a concrete PRNG so callers can thread a value-typed
// generator through without allocation.
type Rand interface {
	Intn(n int) int
}

// Outcome is the transaction's reaction to a CCA result.
type Outcome int

// CCA outcomes.
const (
	// OutcomeNextCCA: the channel was clear but the contention window is
	// not exhausted; perform another CCA at the next slot boundary.
	OutcomeNextCCA Outcome = iota
	// OutcomeTransmit: CW consecutive clear CCAs observed; transmit at
	// the next slot boundary.
	OutcomeTransmit
	// OutcomeBackoff: the channel was busy; a new random backoff has been
	// drawn with an incremented exponent.
	OutcomeBackoff
	// OutcomeFailure: too many busy assessments; the transaction aborts
	// with a channel access failure.
	OutcomeFailure
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeNextCCA:
		return "next-cca"
	case OutcomeTransmit:
		return "transmit"
	case OutcomeBackoff:
		return "backoff"
	case OutcomeFailure:
		return "failure"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Transaction is one slotted CSMA/CA channel-access attempt. It is a pure
// state machine advanced by its owner at backoff slot boundaries:
//
//	for each slot boundary:
//	    if t.CCADue() {
//	        busy := senseChannel()        // receiver on for phy.CCADuration
//	        switch t.CCAResult(busy) { ... }
//	    } else {
//	        t.AdvanceSlot()               // idle backoff slot
//	    }
//
// The zero value is not usable; create transactions with NewTransaction.
type Transaction struct {
	params CSMAParams
	rng    Rand

	nb      int // backoff (busy) counter
	cw      int // remaining clear CCAs needed
	be      int // current backoff exponent
	pending int // backoff slots remaining before the next CCA
	done    bool

	// Statistics.
	ccas       int
	busyCCAs   int
	waitSlots  int
	txGranted  bool
	accessFail bool
}

// NewTransaction starts a channel-access attempt: it draws the initial
// random delay uniformly from [0, 2^BE-1] backoff slots.
func NewTransaction(p CSMAParams, rng Rand) *Transaction {
	t := new(Transaction)
	t.Init(p, rng)
	return t
}

// Init (re)starts the transaction in place — the zero-allocation path for
// callers that embed Transaction by value (the Monte-Carlo contention shards
// and the netsim nodes). It resets every field, so a finished transaction's
// storage can be reused for a fresh attempt.
func (t *Transaction) Init(p CSMAParams, rng Rand) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	*t = Transaction{params: p, rng: rng}
	t.be = p.effectiveBE(p.MinBE)
	t.cw = p.CW
	t.pending = rng.Intn(1 << uint(t.be))
}

// CCADue reports whether the transaction wants a clear channel assessment
// at the current slot boundary.
func (t *Transaction) CCADue() bool { return !t.done && t.pending == 0 }

// Done reports whether the transaction has terminated (transmit granted or
// access failure).
func (t *Transaction) Done() bool { return t.done }

// AdvanceSlot consumes one backoff slot. It panics if a CCA is due instead:
// skipping assessments would corrupt the algorithm.
func (t *Transaction) AdvanceSlot() {
	if t.done {
		return
	}
	if t.pending == 0 {
		panic("mac: AdvanceSlot called while a CCA is due")
	}
	t.pending--
	t.waitSlots++
}

// SkipBackoff consumes every pending backoff slot in one step and returns
// their count, so a CCA is due that many slot boundaries later. WaitSlots
// counts the skipped slots exactly as per-slot AdvanceSlot calls would. It
// returns 0 when a CCA is already due or the transaction has finished.
func (t *Transaction) SkipBackoff() int {
	if t.done {
		return 0
	}
	n := t.pending
	t.pending = 0
	t.waitSlots += n
	return n
}

// CCAResult feeds the outcome of a clear channel assessment performed at a
// slot boundary where CCADue() was true.
func (t *Transaction) CCAResult(busy bool) Outcome {
	if t.done {
		panic("mac: CCAResult on a finished transaction")
	}
	if t.pending != 0 {
		panic("mac: CCAResult without a due CCA")
	}
	t.ccas++
	if busy {
		t.busyCCAs++
		t.nb++
		if t.nb > t.params.MaxBackoffs {
			t.done = true
			t.accessFail = true
			return OutcomeFailure
		}
		t.cw = t.params.CW
		t.be = t.params.effectiveBE(t.be + 1)
		t.pending = t.rng.Intn(1 << uint(t.be))
		if t.pending == 0 {
			// Zero delay: the next CCA happens at the next boundary.
			return OutcomeBackoff
		}
		return OutcomeBackoff
	}
	t.cw--
	if t.cw > 0 {
		return OutcomeNextCCA
	}
	t.done = true
	t.txGranted = true
	return OutcomeTransmit
}

// Stats of a finished (or in-flight) transaction.

// CCAs reports the number of channel assessments performed.
func (t *Transaction) CCAs() int { return t.ccas }

// BusyCCAs reports how many assessments found the channel busy.
func (t *Transaction) BusyCCAs() int { return t.busyCCAs }

// WaitSlots reports the number of idle backoff slots consumed.
func (t *Transaction) WaitSlots() int { return t.waitSlots }

// Granted reports whether the transaction ended with transmission access.
func (t *Transaction) Granted() bool { return t.txGranted }

// Failed reports whether the transaction ended in channel access failure.
func (t *Transaction) Failed() bool { return t.accessFail }

// BackoffExponent exposes the current backoff exponent (for tests and
// instrumentation).
func (t *Transaction) BackoffExponent() int { return t.be }

// Backoffs exposes the busy-CCA counter NB.
func (t *Transaction) Backoffs() int { return t.nb }
