package mac

import (
	"fmt"
)

// Rand is the minimal random source an Attempt draws its backoff delays
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

// Attempt is one slotted CSMA/CA channel-access attempt. It is a pure
// state machine advanced by its owner at backoff slot boundaries:
//
//	for each slot boundary:
//	    if a.CCADue() {
//	        busy := senseChannel()        // receiver on for phy.CCADuration
//	        switch a.CCAResult(&p, rng, busy) { ... }
//	    } else {
//	        a.AdvanceSlot()               // idle backoff slot
//	    }
//
// The owner holds the algorithm parameters and the random source and passes
// them to the calls that draw or decide, so an attempt is only its counters:
// a simulator validates its CSMAParams once per run and keeps its whole
// population of attempts in one flat slice (the Monte-Carlo contention
// shards and the netsim nodes embed Attempt by value). Every call on one
// attempt must pass the same parameters and source. The zero value is not
// usable; start an attempt with Start.
type Attempt struct {
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

// Start (re)starts the attempt in place and draws the initial random delay
// uniformly from [0, 2^BE-1] backoff slots. It resets every field, so a
// finished attempt's storage can be reused for a fresh one. p must have
// passed CSMAParams.Validate: the owner checks it once, not per packet.
func (a *Attempt) Start(p *CSMAParams, rng Rand) {
	be := p.effectiveBE(p.MinBE)
	*a = Attempt{cw: p.CW, be: be, pending: rng.Intn(1 << uint(be))}
}

// CCADue reports whether the attempt wants a clear channel assessment at
// the current slot boundary.
func (a *Attempt) CCADue() bool { return !a.done && a.pending == 0 }

// Done reports whether the attempt has terminated (transmit granted or
// access failure).
func (a *Attempt) Done() bool { return a.done }

// AdvanceSlot consumes one backoff slot. It panics if a CCA is due instead:
// skipping assessments would corrupt the algorithm.
func (a *Attempt) AdvanceSlot() {
	if a.done {
		return
	}
	if a.pending == 0 {
		panic("mac: AdvanceSlot called while a CCA is due")
	}
	a.pending--
	a.waitSlots++
}

// SkipBackoff consumes every pending backoff slot in one step and returns
// their count, so a CCA is due that many slot boundaries later. WaitSlots
// counts the skipped slots exactly as per-slot AdvanceSlot calls would. It
// returns 0 when a CCA is already due or the attempt has finished.
func (a *Attempt) SkipBackoff() int {
	if a.done {
		return 0
	}
	n := a.pending
	a.pending = 0
	a.waitSlots += n
	return n
}

// CCAResult feeds the outcome of a clear channel assessment performed at a
// slot boundary where CCADue() was true, under the parameters and random
// source the attempt was started with.
func (a *Attempt) CCAResult(p *CSMAParams, rng Rand, busy bool) Outcome {
	if a.done {
		panic("mac: CCAResult on a finished transaction")
	}
	if a.pending != 0 {
		panic("mac: CCAResult without a due CCA")
	}
	a.ccas++
	if busy {
		a.busyCCAs++
		a.nb++
		if a.nb > p.MaxBackoffs {
			a.done = true
			a.accessFail = true
			return OutcomeFailure
		}
		a.cw = p.CW
		a.be = p.effectiveBE(a.be + 1)
		// A zero delay means the next CCA happens at the next boundary.
		a.pending = rng.Intn(1 << uint(a.be))
		return OutcomeBackoff
	}
	a.cw--
	if a.cw > 0 {
		return OutcomeNextCCA
	}
	a.done = true
	a.txGranted = true
	return OutcomeTransmit
}

// Stats of a finished (or in-flight) attempt.

// CCAs reports the number of channel assessments performed.
func (a *Attempt) CCAs() int { return a.ccas }

// BusyCCAs reports how many assessments found the channel busy.
func (a *Attempt) BusyCCAs() int { return a.busyCCAs }

// WaitSlots reports the number of idle backoff slots consumed.
func (a *Attempt) WaitSlots() int { return a.waitSlots }

// Granted reports whether the transaction ended with transmission access.
func (a *Attempt) Granted() bool { return a.txGranted }

// Failed reports whether the transaction ended in channel access failure.
func (a *Attempt) Failed() bool { return a.accessFail }

// BackoffExponent exposes the current backoff exponent (for tests and
// instrumentation).
func (a *Attempt) BackoffExponent() int { return a.be }

// Backoffs exposes the busy-CCA counter NB.
func (a *Attempt) Backoffs() int { return a.nb }
