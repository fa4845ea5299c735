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
// nothing else. netsim needs no more: each beacon schedules the next, so
// one beacon is pending at a time, and each node has at most one pending
// event, because every node handler schedules at most the node's next
// protocol step (contention, the next CCA, the transmission, its end, the
// acknowledgment or its timeout) and a node starts a superframe only while
// no exchange of its own is in flight. The queue therefore never holds
// more than one entry per node plus one.
// A model that must revoke an event records that in its own state and lets
// the handler ignore the event when it fires.
package des

import (
	"fmt"
	"slices"
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
	heap     []event // 4-ary min-heap
	seq      uint64
	rng      engine.RNG
	fired    uint64
	maxDepth int // deepest the heap has grown this run
	dispatch Dispatcher
}

// New returns a simulator whose random source is seeded with seed.
// Identical seeds and identical scheduling sequences produce identical runs.
func New(seed int64) *Simulator {
	return &Simulator{rng: engine.NewRNG(seed)}
}

// Reset rewinds the simulator to the state New(seed) would produce while
// keeping the heap's backing storage, grown to hold at least room events, so
// a caller that knows its queue bound schedules without growing the heap.
// Pending events are dropped. The registered dispatcher is kept.
func (s *Simulator) Reset(seed int64, room int) {
	s.heap = slices.Grow(s.heap[:0], room)
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
// Reset — the peak number of simultaneously pending events, a direct
// measure of scheduling pressure.
func (s *Simulator) MaxHeapDepth() int { return s.maxDepth }

// Pending reports the number of events currently scheduled.
func (s *Simulator) Pending() int { return len(s.heap) }

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
func (s *Simulator) AtEvent(t time.Duration, kind, actor int32, arg time.Duration) {
	if s.dispatch == nil {
		panic("des: AtEvent without a dispatcher (call SetDispatcher first)")
	}
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	s.heap = append(s.heap, event{at: t, seq: s.seq, kind: kind, actor: actor, arg: arg})
	s.seq++
	s.siftUp(len(s.heap) - 1)
	if len(s.heap) > s.maxDepth {
		s.maxDepth = len(s.heap)
	}
}

// step fires the earliest pending event if it is due at or before deadline,
// advancing the clock to its timestamp, and reports whether it did.
func (s *Simulator) step(deadline time.Duration) bool {
	if len(s.heap) == 0 || s.heap[0].at > deadline {
		return false
	}
	ev := s.heap[0]
	s.popRoot()
	s.now = ev.at
	s.fired++
	s.dispatch(ev.kind, ev.actor, ev.arg)
	return true
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (s *Simulator) Step() bool { return s.step(time.Duration(1<<63 - 1)) }

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled after the deadline remain queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for s.step(deadline) {
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
