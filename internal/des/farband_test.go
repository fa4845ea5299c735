package des

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The parked far band is a pure cost optimization: Step must pop the global
// (at, seq) minimum across both bands, so the firing sequence of any
// schedule — including ones that interleave parked timelines, out-of-order
// inserts and cancellations — is identical to a single sorted queue's. The
// tests below pin that equivalence against an independent reference
// implementation, and pin the skip path's zero-allocation contract.

// scheduler is the surface a recorded scenario drives; both the real
// Simulator and the reference queue implement it.
type scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func()) (cancel func())
	Run()
}

// simBackend adapts Simulator, scheduling through the closures table.
type simBackend struct{ c *closures }

func (b simBackend) Now() time.Duration { return b.c.Now() }
func (b simBackend) At(t time.Duration, fn func()) func() {
	id := b.c.at(t, fn)
	return func() { b.c.Cancel(id) }
}
func (b simBackend) Run() { b.c.Run() }

// refEvent is one entry of the reference queue.
type refEvent struct {
	at        time.Duration
	seq       uint64
	cancelled bool
	fn        func()
}

// refQueue is the reference semantics: one flat slice, popped by a full
// linear scan for the (at, seq) minimum — no heaps, no bands, nothing to
// share a bug with the real kernel.
type refQueue struct {
	now    time.Duration
	seq    uint64
	events []*refEvent
}

func (q *refQueue) Now() time.Duration { return q.now }

func (q *refQueue) At(t time.Duration, fn func()) func() {
	ev := &refEvent{at: t, seq: q.seq, fn: fn}
	q.seq++
	q.events = append(q.events, ev)
	return func() { ev.cancelled = true }
}

func (q *refQueue) Run() {
	for {
		best := -1
		for i, ev := range q.events {
			if ev.cancelled {
				continue
			}
			if best < 0 || ev.at < q.events[best].at ||
				(ev.at == q.events[best].at && ev.seq < q.events[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		ev := q.events[best]
		q.events = append(q.events[:best], q.events[best+1:]...)
		q.now = ev.at
		ev.fn()
	}
}

// driveScenario replays one recorded random schedule on a backend: a
// pre-sorted beacon timeline (the far band's reason to exist) whose handlers
// schedule bursts of near-future work and cancel a pseudo-random subset of
// it. All randomness comes from the caller's seed, so the same scenario runs
// on both backends event for event.
func driveScenario(sc scheduler, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var log []time.Duration
	var pending []func()

	record := func(tag time.Duration) {
		// Fold the firing instant and a tag into the trace; any divergence
		// in order or time shows up as a trace mismatch.
		log = append(log, sc.Now()*1000+tag)
	}
	burst := func() {
		record(1)
		for k := rng.Intn(4); k > 0; k-- {
			d := time.Duration(rng.Intn(900)) * time.Microsecond
			cancel := sc.At(sc.Now()+d, func() { record(2) })
			pending = append(pending, cancel)
		}
		if len(pending) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(pending))
			pending[i]()
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
	}
	// The parked timeline: 300 strictly ascending beacon instants.
	for i := 0; i < 300; i++ {
		sc.At(time.Duration(i)*time.Millisecond, burst)
	}
	sc.Run()
	return log
}

// TestFarBandReplayIdentity proves the two-band queue fires recorded random
// schedules in exactly the order the reference single-queue semantics does.
func TestFarBandReplayIdentity(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := driveScenario(simBackend{newClosures(0)}, seed)
		want := driveScenario(&refQueue{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing trace diverges at event %d: %v vs %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestFarBandRouting pins the band routing itself: an ascending timeline
// parks entirely in the far band, one earlier insert sifts into the near
// heap without disturbing the parked run, and consumption drains both in
// global order.
func TestFarBandRouting(t *testing.T) {
	s := New(0)
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
	for i := 1; i <= 50; i++ {
		s.AtEvent(time.Duration(i)*time.Millisecond, 0, 0, 0)
	}
	if got := s.FarDepth(); got != 50 {
		t.Fatalf("ascending timeline parked %d entries, want 50", got)
	}
	s.AtEvent(500*time.Microsecond, 0, 0, 0) // before the parked head: near heap
	if got := s.FarDepth(); got != 50 {
		t.Fatalf("earlier insert changed the far band: depth %d, want 50", got)
	}
	s.AtEvent(51*time.Millisecond, 0, 0, 0) // at/after the parked tail: far band
	if got := s.FarDepth(); got != 51 {
		t.Fatalf("later insert missed the far band: depth %d, want 51", got)
	}
	s.Run()
	if s.Fired() != 52 || s.FarDepth() != 0 {
		t.Fatalf("Fired = %d FarDepth = %d, want 52 and 0", s.Fired(), s.FarDepth())
	}
}

// TestFarBandSkipAllocFree extends the kernel's allocation guard to the
// fast-forward path: parking a pre-sorted timeline and draining it through
// Step must not allocate once the band storage has warmed up — the skip
// path is O(1) appends and O(1) pops, with no sift and no growth.
func TestFarBandSkipAllocFree(t *testing.T) {
	s := New(1)
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
	// Warm-up: grow far band and slot table to steady-state capacity.
	for i := 0; i < 256; i++ {
		s.ScheduleEvent(time.Duration(i)*time.Millisecond, 0, 0, 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 128; i++ {
			s.ScheduleEvent(time.Duration(i)*time.Millisecond, 0, 0, 0)
		}
		if s.FarDepth() != 128 {
			t.Fatal("timeline not parked in the far band")
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("far-band skip path allocated %v per cycle, want 0", allocs)
	}
}

// TestFarBandOrderAgainstSort cross-checks a bulk out-of-order schedule: the
// pop order equals the stable (at, seq) sort of everything pushed.
func TestFarBandOrderAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := newClosures(0)
	type stamped struct {
		at  time.Duration
		seq int
	}
	var want []stamped
	var got []stamped
	n := 0
	// Half a parked ascending run, half random inserts landing before it.
	for i := 0; i < 400; i++ {
		var at time.Duration
		if i%2 == 0 {
			at = time.Duration(1000+i) * time.Millisecond
		} else {
			at = time.Duration(rng.Intn(2000)) * time.Millisecond
		}
		seq := n
		n++
		want = append(want, stamped{at, seq})
		s.at(at, func() { got = append(got, stamped{s.Now(), seq}) })
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop order diverges from stable sort at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
