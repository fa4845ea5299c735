package des

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Every pop must take the (at, seq) minimum, so the firing sequence of any
// schedule — including ones that interleave ascending timelines,
// out-of-order inserts and same-instant ties — is identical to a single
// sorted queue's. The tests below pin that equivalence against an
// independent reference implementation.

// scheduler is the surface a recorded scenario drives; both the real
// Simulator and the reference queue implement it.
type scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	Run()
	RunUntil(deadline time.Duration)
}

// simBackend adapts Simulator, scheduling through the closures table.
type simBackend struct{ c *closures }

func (b simBackend) Now() time.Duration              { return b.c.Now() }
func (b simBackend) At(t time.Duration, fn func())   { b.c.at(t, fn) }
func (b simBackend) Run()                            { b.c.Run() }
func (b simBackend) RunUntil(deadline time.Duration) { b.c.RunUntil(deadline) }

// refEvent is one entry of the reference queue.
type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// refQueue is the reference semantics: one flat slice, popped by a full
// linear scan for the (at, seq) minimum — no heap, nothing to share a bug
// with the real kernel.
type refQueue struct {
	now    time.Duration
	seq    uint64
	events []refEvent
}

func (q *refQueue) Now() time.Duration { return q.now }

func (q *refQueue) At(t time.Duration, fn func()) {
	q.events = append(q.events, refEvent{at: t, seq: q.seq, fn: fn})
	q.seq++
}

func (q *refQueue) Run() { q.RunUntil(time.Duration(1<<63 - 1)) }

func (q *refQueue) RunUntil(deadline time.Duration) {
	for {
		best := -1
		for i, ev := range q.events {
			if best < 0 || ev.at < q.events[best].at ||
				(ev.at == q.events[best].at && ev.seq < q.events[best].seq) {
				best = i
			}
		}
		if best < 0 || q.events[best].at > deadline {
			break
		}
		ev := q.events[best]
		q.events = append(q.events[:best], q.events[best+1:]...)
		q.now = ev.at
		ev.fn()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// firing is one entry of a replay trace: the instant an event fired and
// the order in which it was scheduled.
type firing struct {
	at time.Duration
	id int
}

// driveScenario replays one recorded random schedule on a backend: a
// pre-sorted beacon timeline whose handlers schedule bursts of near-future
// work, some of which chains a follow-up the way a netsim node schedules
// its next protocol step. Delays are coarse
// (quarter-millisecond multiples, zero included), so events often share an
// instant with each other and with the beacons, and the trace pins the
// same-instant FIFO order as well as the time order. The schedule is run in
// RunUntil slices and then to completion. All randomness comes from the
// caller's seed, so the same scenario runs on both backends event for event.
func driveScenario(sc scheduler, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	next := 0
	var at func(t time.Duration, chain int)
	at = func(t time.Duration, chain int) {
		id := next
		next++
		sc.At(t, func() {
			log = append(log, firing{sc.Now(), id})
			if chain > 0 {
				at(sc.Now()+time.Duration(rng.Intn(4))*250*time.Microsecond, chain-1)
			}
		})
	}
	burst := func() {
		for k := rng.Intn(4); k > 0; k-- {
			at(sc.Now()+time.Duration(rng.Intn(8))*250*time.Microsecond, rng.Intn(3))
		}
	}
	// The timeline: 300 strictly ascending beacon instants.
	for i := 0; i < 300; i++ {
		id := next
		next++
		sc.At(time.Duration(i)*time.Millisecond, func() {
			log = append(log, firing{sc.Now(), id})
			burst()
		})
	}
	// The cuts fall on the quarter-millisecond grid, so events sit exactly
	// at some deadlines: those fire before RunUntil returns. Each cut logs
	// the clock and, as a negative id, how many entries precede it.
	for cut := 0; cut < 300; cut += 37 {
		sc.RunUntil(time.Duration(cut)*time.Millisecond + time.Duration(cut%4)*250*time.Microsecond)
		log = append(log, firing{sc.Now(), -1 - len(log)})
	}
	sc.Run()
	return log
}

// TestReplayMatchesReference proves the heap fires recorded random schedules
// in exactly the order the reference linear-scan queue does.
func TestReplayMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := driveScenario(simBackend{newClosures(0)}, seed)
		want := driveScenario(&refQueue{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		ties := 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing trace diverges at event %d: %+v vs %+v", seed, i, got[i], want[i])
			}
			if i > 0 && got[i].id >= 0 && got[i-1].id >= 0 && got[i].at == got[i-1].at {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no same-instant events; the scenario does not exercise FIFO ties", seed)
		}
	}
}

// TestOrderAgainstSort cross-checks a bulk out-of-order schedule: the
// pop order equals the stable (at, seq) sort of everything pushed.
func TestOrderAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := newClosures(0)
	type stamped struct {
		at  time.Duration
		seq int
	}
	var want []stamped
	var got []stamped
	n := 0
	// Half an ascending run, half random inserts landing before it.
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
