// Package des implements a small deterministic discrete-event simulation
// kernel used by the network simulator. (The Monte-Carlo contention
// characterizer runs its own slot calendar, internal/contention, since every
// one of its events falls on the backoff-slot grid.)
//
// Design:
//   - Simulated time is a time.Duration measured from the start of the
//     simulation; 802.15.4 timing (16 µs symbols, 320 µs backoff slots) is
//     exactly representable in nanoseconds.
//   - Events scheduled for the same instant fire in scheduling order
//     (FIFO), which makes runs reproducible for a fixed seed.
//   - The kernel is single-goroutine by design: handlers run synchronously
//     inside Step/Run and may schedule further events.
//
// # Zero-allocation event engine
//
// The event queue is a flat 4-ary min-heap of value-typed events — no
// per-event heap nodes, no container/heap boxing through `any`, no pointer
// chasing during sift. An event is 32 bytes: its instant, its sequence
// number and the (kind, actor, arg) triple it delivers. Steady-state
// scheduling therefore allocates nothing: pushing reuses the slice
// capacity, and popped events are plain struct copies.
//
// # Idle fast-forward: the parked far band
//
// Long quiescent spans — a lifetime run ticking through thousands of
// pre-scheduled beacons with almost no traffic between them — would pay a
// full heap sift per beacon even though the beacons arrive pre-sorted. The
// queue therefore has two bands. An event pushed at or after the latest
// parked instant appends to the far band, a sorted FIFO consumed from the
// front: O(1) push, O(1) pop. Anything earlier goes through the 4-ary near
// heap as before. Every pop compares the near root against the far head
// under the same (at, seq) order and takes the global minimum, so the
// firing sequence is identical to a single heap, event for event — the
// split is purely a cost optimization and can never reorder a run. A model
// that pre-schedules its timeline in ascending order (netsim's beacon
// grid, lifetime epochs) parks it for free and fast-forwards across idle
// spans at one comparison per event instead of one sift.
//
// Events are typed: the model registers one Dispatcher function and
// schedules events as a (kind, actor, arg) triple via AtEvent/ScheduleEvent.
// No closure is allocated per event and an event holds no pointers; the
// dispatcher demultiplexes on the model's small kind enum. This is how
// netsim drives its per-node state machines.
//
// # No cancellation
//
// A scheduled event always fires. The kernel keeps no handle per event and
// no table to revoke one through, so a pop is one (at, seq) minimum and
// nothing else. netsim needs no more: the beacons are a fixed timeline, and
// each node has at most one pending event, because every node handler
// schedules at most the node's next protocol step (contention, the next
// CCA, the transmission, its end, the acknowledgment or its timeout) and a
// node starts a superframe only while no exchange of its own is in flight.
// A model that must revoke an event records that in its own state and lets
// the handler ignore the event when it fires.
package des

import (
	"fmt"
	"time"

	"dense802154/internal/engine"
)

// Dispatcher receives typed events scheduled with AtEvent/ScheduleEvent:
// kind is the model's event enum, actor identifies the entity the event
// concerns (a node index, say; -1 for global events) and arg carries the
// event's time payload (which often differs from the firing instant — a
// CCA event fires one turnaround early but targets a slot boundary).
type Dispatcher func(kind, actor int32, arg time.Duration)

// event is one value-typed entry of the flat event heap (32 bytes).
type event struct {
	at    time.Duration
	seq   uint64
	kind  int32
	actor int32
	arg   time.Duration
}

// Simulator is a discrete-event simulator instance.
type Simulator struct {
	now      time.Duration
	heap     []event // near band: 4-ary min-heap
	far      []event // far band: sorted FIFO, consumed from farHead
	farHead  int
	seq      uint64
	rng      engine.RNG
	fired    uint64
	maxDepth int // deepest the two bands have grown together this run
	dispatch Dispatcher
}

// New returns a simulator whose random source is seeded with seed.
// Identical seeds and identical scheduling sequences produce identical runs.
func New(seed int64) *Simulator {
	return &Simulator{rng: engine.NewRNG(seed)}
}

// Reset rewinds the simulator to the state New(seed) would produce while
// keeping the backing storage of both bands, so a recycled simulator
// schedules its next run without growing allocations. Pending events are
// dropped. The registered dispatcher is kept.
func (s *Simulator) Reset(seed int64) {
	s.heap = s.heap[:0]
	s.far = s.far[:0]
	s.farHead = 0
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.maxDepth = 0
	s.rng = engine.NewRNG(seed)
}

// SetDispatcher registers the typed-event dispatcher. It must be set before
// the first AtEvent/ScheduleEvent call.
func (s *Simulator) SetDispatcher(d Dispatcher) { s.dispatch = d }

// Now reports the current simulated time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand exposes the simulator's deterministic random source.
func (s *Simulator) Rand() *engine.RNG { return &s.rng }

// Fired reports the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// MaxHeapDepth reports the deepest the event queue has grown since the last
// Reset — the peak number of simultaneously pending entries across both
// bands, a direct measure of scheduling pressure.
func (s *Simulator) MaxHeapDepth() int { return s.maxDepth }

// FarDepth reports the number of entries currently parked in the far band.
// It exists for tests and benchmarks that assert the fast-forward band is
// actually absorbing a pre-scheduled timeline.
func (s *Simulator) FarDepth() int { return len(s.far) - s.farHead }

// Pending reports the number of events currently scheduled.
func (s *Simulator) Pending() int { return len(s.heap) + len(s.far) - s.farHead }

// ScheduleEvent queues a typed event after delay (see Dispatcher). It
// panics on negative delays: scheduling into the past is always a bug in
// the calling model.
func (s *Simulator) ScheduleEvent(delay time.Duration, kind, actor int32, arg time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.AtEvent(s.now+delay, kind, actor, arg)
}

// AtEvent queues a typed event at absolute simulated time t (>= Now). The
// (kind, actor, arg) triple is delivered to the registered Dispatcher when
// the event fires. AtEvent allocates nothing in steady state.
//
// An event at or after the latest parked instant appends to the far band
// in O(1); anything earlier sifts into the near heap.
func (s *Simulator) AtEvent(t time.Duration, kind, actor int32, arg time.Duration) {
	if s.dispatch == nil {
		panic("des: AtEvent without a dispatcher (call SetDispatcher first)")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	ev := event{at: t, seq: s.seq, kind: kind, actor: actor, arg: arg}
	s.seq++
	if n := len(s.far); n == s.farHead || t >= s.far[n-1].at {
		// Keeps the far band sorted: seq is monotone, so an event at or
		// after the tail instant extends the sorted order.
		if s.farHead == n {
			s.far = s.far[:0]
			s.farHead = 0
		}
		s.far = append(s.far, ev)
	} else {
		s.heap = append(s.heap, ev)
		s.siftUp(len(s.heap) - 1)
	}
	if depth := len(s.heap) + len(s.far) - s.farHead; depth > s.maxDepth {
		s.maxDepth = depth
	}
}

// farMin reports whether the next pending entry is the far head: the far
// band is non-empty and the near heap is empty or ordered after it. The
// (at, seq) comparison is what makes the two-band split invisible — the pop
// sequence is exactly a single heap's.
func (s *Simulator) farMin() bool {
	if s.farHead >= len(s.far) {
		return false
	}
	return len(s.heap) == 0 || before(&s.far[s.farHead], &s.heap[0])
}

// popUntil removes and returns the globally earliest entry across both
// bands if it is due at or before deadline; otherwise it leaves the queue
// untouched and reports false.
func (s *Simulator) popUntil(deadline time.Duration) (event, bool) {
	if s.farMin() {
		ev := s.far[s.farHead]
		if ev.at > deadline {
			return event{}, false
		}
		s.farHead++
		if s.farHead == len(s.far) {
			s.far = s.far[:0]
			s.farHead = 0
		}
		return ev, true
	}
	if len(s.heap) == 0 || s.heap[0].at > deadline {
		return event{}, false
	}
	ev := s.heap[0]
	s.popRoot()
	return ev, true
}

// fire advances the clock to ev and delivers it.
func (s *Simulator) fire(ev event) {
	s.now = ev.at
	s.fired++
	s.dispatch(ev.kind, ev.actor, ev.arg)
}

// maxTime is the deadline that admits every event.
const maxTime = time.Duration(1<<63 - 1)

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	ev, ok := s.popUntil(maxTime)
	if ok {
		s.fire(ev)
	}
	return ok
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled after the deadline remain queued.
// Each event is located and popped in one pass.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for {
		ev, ok := s.popUntil(deadline)
		if !ok {
			break
		}
		s.fire(ev)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// ---- flat 4-ary min-heap, ordered by (at, seq) ----
//
// A 4-ary layout halves the tree depth of a binary heap; with value-typed
// events the four-child comparison loop stays in one or two cache lines, so
// pops touch fewer lines than a deeper binary sift would.

// before reports heap ordering between two events.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// less is before as 0 or 1, computed without a branch: which of four
// children is smallest is a coin toss to the branch predictor, and a
// mispredicted branch per comparison cost more than the comparisons.
func less(a, b *event) int {
	return b2i(a.at < b.at) | b2i(a.at == b.at)&b2i(a.seq < b.seq)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *Simulator) siftUp(i int) {
	h := s.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// popRoot removes the heap minimum.
func (s *Simulator) popRoot() {
	h := s.heap
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
	}
	s.heap = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+3 < n {
			// A full set of children: a branch-free tournament.
			a := first + less(&h[first+1], &h[first])
			b := first + 2 + less(&h[first+3], &h[first+2])
			best = a + (b-a)*less(&h[b], &h[a])
		} else {
			for c := first + 1; c < n; c++ {
				if before(&h[c], &h[best]) {
					best = c
				}
			}
		}
		if !before(&h[best], &ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}
