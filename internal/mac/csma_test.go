package mac

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// txn is one Attempt with the parameters and random source its owner
// holds, driven one attempt at a time.
type txn struct {
	Attempt
	p   CSMAParams
	rng Rand
}

func newTxn(p CSMAParams, rng Rand) *txn {
	t := &txn{p: p, rng: rng}
	t.Start(&t.p, rng)
	return t
}

func (t *txn) CCAResult(busy bool) Outcome { return t.Attempt.CCAResult(&t.p, t.rng, busy) }

func TestParamsValidate(t *testing.T) {
	if err := StandardParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CSMAParams{
		{MinBE: -1, MaxBE: 5, MaxBackoffs: 4, CW: 2},
		{MinBE: 5, MaxBE: 3, MaxBackoffs: 4, CW: 2},
		{MinBE: 3, MaxBE: 5, MaxBackoffs: -1, CW: 2},
		{MinBE: 3, MaxBE: 5, MaxBackoffs: 4, CW: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPaperParamsThreeAttempts(t *testing.T) {
	// BE starts at 3; after two increments (BE=5) one more busy CCA must
	// abort: exactly 3 busy assessments are tolerated before failure...
	// i.e. the 3rd busy CCA (NB=3 > MaxBackoffs=2) fails the transaction.
	rng := rand.New(rand.NewSource(1))
	tr := newTxn(PaperParams(), rng)
	busyCount := 0
	for !tr.Done() {
		if tr.CCADue() {
			busyCount++
			tr.CCAResult(true)
		} else {
			tr.AdvanceSlot()
		}
	}
	if !tr.Failed() {
		t.Fatal("always-busy channel must end in access failure")
	}
	if busyCount != 3 {
		t.Fatalf("tolerated %d busy CCAs before failing, want 3", busyCount)
	}
}

func TestCleanChannelGrantsAfterTwoCCAs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		tr := newTxn(PaperParams(), rng)
		ccas := 0
		for !tr.Done() {
			if tr.CCADue() {
				ccas++
				out := tr.CCAResult(false)
				if ccas == 1 && out != OutcomeNextCCA {
					t.Fatalf("first clear CCA -> %v, want next-cca", out)
				}
				if ccas == 2 && out != OutcomeTransmit {
					t.Fatalf("second clear CCA -> %v, want transmit", out)
				}
			} else {
				tr.AdvanceSlot()
			}
		}
		if !tr.Granted() || tr.Failed() {
			t.Fatal("clean channel must grant")
		}
		if ccas != 2 {
			t.Fatalf("ccas = %d, want 2 (CW)", ccas)
		}
		if tr.CCAs() != 2 || tr.BusyCCAs() != 0 {
			t.Fatal("stats")
		}
	}
}

func TestInitialBackoffWindow(t *testing.T) {
	// The first sense is delayed by rand[0, 2^3-1] slots.
	rng := rand.New(rand.NewSource(3))
	seen := make(map[int]bool)
	for trial := 0; trial < 2000; trial++ {
		tr := newTxn(PaperParams(), rng)
		slots := 0
		for !tr.CCADue() {
			tr.AdvanceSlot()
			slots++
		}
		if slots < 0 || slots > 7 {
			t.Fatalf("initial backoff %d outside [0,7]", slots)
		}
		seen[slots] = true
	}
	for d := 0; d <= 7; d++ {
		if !seen[d] {
			t.Errorf("delay %d never drawn", d)
		}
	}
}

func TestBackoffExponentGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := newTxn(PaperParams(), rng)
	if tr.BackoffExponent() != 3 {
		t.Fatalf("initial BE = %d", tr.BackoffExponent())
	}
	drain := func() {
		for !tr.CCADue() && !tr.Done() {
			tr.AdvanceSlot()
		}
	}
	drain()
	tr.CCAResult(true)
	if tr.BackoffExponent() != 4 {
		t.Fatalf("BE after 1 busy = %d, want 4", tr.BackoffExponent())
	}
	drain()
	tr.CCAResult(true)
	if tr.BackoffExponent() != 5 {
		t.Fatalf("BE after 2 busy = %d, want 5", tr.BackoffExponent())
	}
	if tr.Backoffs() != 2 {
		t.Fatalf("NB = %d", tr.Backoffs())
	}
}

func TestBEDoesNotExceedMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := StandardParams() // MaxBackoffs=4 allows BE to hit the cap
	tr := newTxn(p, rng)
	for !tr.Done() {
		if tr.CCADue() {
			tr.CCAResult(true)
			if tr.BackoffExponent() > p.MaxBE {
				t.Fatalf("BE %d exceeded max %d", tr.BackoffExponent(), p.MaxBE)
			}
		} else {
			tr.AdvanceSlot()
		}
	}
}

func TestBusyResetsContentionWindow(t *testing.T) {
	// clear, busy, then the transaction must again demand CW=2 clears.
	rng := rand.New(rand.NewSource(6))
	tr := newTxn(PaperParams(), rng)
	step := func(busy bool) Outcome {
		for !tr.CCADue() {
			tr.AdvanceSlot()
		}
		return tr.CCAResult(busy)
	}
	if out := step(false); out != OutcomeNextCCA {
		t.Fatalf("first clear -> %v", out)
	}
	if out := step(true); out != OutcomeBackoff {
		t.Fatalf("busy -> %v", out)
	}
	if out := step(false); out != OutcomeNextCCA {
		t.Fatalf("clear after busy -> %v, want next-cca (CW reset)", out)
	}
	if out := step(false); out != OutcomeTransmit {
		t.Fatalf("second clear -> %v", out)
	}
}

func TestBatteryLifeExtensionCapsBE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := PaperParams()
	p.BatteryLifeExt = true
	tr := newTxn(p, rng)
	if tr.BackoffExponent() != 2 {
		t.Fatalf("BLE initial BE = %d, want 2", tr.BackoffExponent())
	}
	for !tr.Done() {
		if tr.CCADue() {
			tr.CCAResult(true)
			if tr.BackoffExponent() > 2 {
				t.Fatalf("BLE BE grew to %d", tr.BackoffExponent())
			}
		} else {
			tr.AdvanceSlot()
		}
	}
}

func TestMisusePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// AdvanceSlot while CCA due.
	tr := newTxn(PaperParams(), rng)
	for !tr.CCADue() {
		tr.AdvanceSlot()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceSlot with due CCA must panic")
			}
		}()
		tr.AdvanceSlot()
	}()
	// CCAResult without due CCA.
	tr2 := newTxn(CSMAParams{MinBE: 3, MaxBE: 5, MaxBackoffs: 2, CW: 2}, rand.New(rand.NewSource(12)))
	if !tr2.CCADue() {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("CCAResult without due CCA must panic")
				}
			}()
			tr2.CCAResult(false)
		}()
	}
	// CCAResult after done.
	tr3 := newTxn(PaperParams(), rng)
	for !tr3.Done() {
		if tr3.CCADue() {
			tr3.CCAResult(false)
		} else {
			tr3.AdvanceSlot()
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CCAResult on finished transaction must panic")
			}
		}()
		tr3.CCAResult(false)
	}()
	// AdvanceSlot after done is a harmless no-op.
	tr3.AdvanceSlot()
	// Invalid params: the owner of the attempts checks them once.
	if err := (CSMAParams{MinBE: 3, MaxBE: 1, MaxBackoffs: 1, CW: 2}).Validate(); err == nil {
		t.Error("MinBE above MaxBE must not validate")
	}
}

// Property: under any channel pattern, a transaction terminates within a
// bounded number of slots, and Granted XOR Failed holds at the end.
func TestPropertyTransactionTerminates(t *testing.T) {
	f := func(seed int64, pattern uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newTxn(StandardParams(), rng)
		steps := 0
		bit := 0
		for !tr.Done() {
			steps++
			if steps > 10_000 {
				return false
			}
			if tr.CCADue() {
				busy := pattern&(1<<uint(bit%64)) != 0
				bit++
				tr.CCAResult(busy)
			} else {
				tr.AdvanceSlot()
			}
		}
		return tr.Granted() != tr.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: total CCAs never exceed (MaxBackoffs+1)·CW and busy CCAs never
// exceed MaxBackoffs+1.
func TestPropertyCCABounds(t *testing.T) {
	f := func(seed int64, pattern uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := PaperParams()
		tr := newTxn(p, rng)
		bit := 0
		for !tr.Done() {
			if tr.CCADue() {
				tr.CCAResult(pattern&(1<<uint(bit%64)) != 0)
				bit++
			} else {
				tr.AdvanceSlot()
			}
		}
		maxCCA := (p.MaxBackoffs + 1) * p.CW
		return tr.CCAs() <= maxCCA && tr.BusyCCAs() <= p.MaxBackoffs+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{OutcomeNextCCA, OutcomeTransmit, OutcomeBackoff, OutcomeFailure, Outcome(42)} {
		if o.String() == "" {
			t.Fatalf("empty outcome string for %d", int(o))
		}
	}
}

// TestSkipBackoffMatchesSlotStepping drives two transactions with the same
// seed through the same channel verdicts: one consumes its backoff slot by
// slot with AdvanceSlot, the other in one SkipBackoff call. The skipped
// count must equal the stepped one at every backoff, and every statistic
// must agree throughout.
func TestSkipBackoffMatchesSlotStepping(t *testing.T) {
	params := []CSMAParams{
		PaperParams(),
		StandardParams(),
		{MinBE: 0, MaxBE: 0, MaxBackoffs: 3, CW: 1},
		{MinBE: 2, MaxBE: 8, MaxBackoffs: 4, CW: 2},
		{MinBE: 3, MaxBE: 12, MaxBackoffs: 10, CW: 2},
		{MinBE: 3, MaxBE: 5, MaxBackoffs: 4, CW: 2, BatteryLifeExt: true},
	}
	for pi, p := range params {
		for seed := int64(0); seed < 200; seed++ {
			step := newTxn(p, rand.New(rand.NewSource(seed)))
			skip := newTxn(p, rand.New(rand.NewSource(seed)))
			channel := rand.New(rand.NewSource(-seed - 1))
			for !step.Done() {
				stepped := 0
				for !step.CCADue() {
					step.AdvanceSlot()
					stepped++
				}
				if got := skip.SkipBackoff(); got != stepped {
					t.Fatalf("params %d seed %d: SkipBackoff = %d, stepping took %d", pi, seed, got, stepped)
				}
				if !skip.CCADue() {
					t.Fatalf("params %d seed %d: no CCA due after SkipBackoff", pi, seed)
				}
				if again := skip.SkipBackoff(); again != 0 {
					t.Fatalf("params %d seed %d: SkipBackoff with a CCA due = %d", pi, seed, again)
				}
				busy := channel.Intn(3) == 0
				if a, b := step.CCAResult(busy), skip.CCAResult(busy); a != b {
					t.Fatalf("params %d seed %d: outcomes %v vs %v", pi, seed, a, b)
				}
				if step.WaitSlots() != skip.WaitSlots() || step.CCAs() != skip.CCAs() ||
					step.BusyCCAs() != skip.BusyCCAs() || step.Backoffs() != skip.Backoffs() ||
					step.BackoffExponent() != skip.BackoffExponent() || step.Done() != skip.Done() {
					t.Fatalf("params %d seed %d: state diverged", pi, seed)
				}
			}
			if step.Granted() != skip.Granted() || step.Failed() != skip.Failed() {
				t.Fatalf("params %d seed %d: outcome diverged", pi, seed)
			}
			if n := skip.SkipBackoff(); n != 0 {
				t.Fatalf("params %d seed %d: SkipBackoff on a finished transaction = %d", pi, seed, n)
			}
		}
	}
}
