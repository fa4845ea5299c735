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
//     inside Step/Run and may schedule or cancel further events.
//
// # Zero-allocation event engine
//
// The event queue is a flat 4-ary min-heap of value-typed events — no
// per-event heap nodes, no container/heap boxing through `any`, no pointer
// chasing during sift. Steady-state scheduling therefore allocates nothing:
// pushing reuses the slice capacity, and popped events are plain struct
// copies.
//
// # Idle fast-forward: the parked far band
//
// Long quiescent spans — a lifetime run ticking through thousands of
// pre-scheduled beacons with almost no traffic between them — would pay a
// full heap sift per beacon even though the beacons arrive pre-sorted. The
// queue therefore has two bands. An event pushed at or after the latest
// parked instant appends to the far band, a sorted FIFO consumed from the
// front: O(1) push, O(1) pop. Anything earlier goes through the 4-ary near
// heap as before. Step and peek always compare the near root against the
// far head under the same (at, seq) order and take the global minimum, so
// the firing sequence is identical to a single heap, event for event — the
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
// Cancellation works through EventID handles backed by a generation-checked
// slot table with a free list: cancelled or fired slots are recycled for
// later events, and a stale EventID (whose slot has been reused) is
// harmlessly ignored. Cancelled events are removed lazily when they surface
// at the heap root.
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

// EventID is a cancellable handle to a scheduled event. The zero value is
// not a valid handle and cancelling it is a no-op.
type EventID struct {
	slot int32
	gen  uint32
}

// event is one value-typed entry of the flat event heap.
type event struct {
	at    time.Duration
	seq   uint64
	slot  int32 // index into Simulator.slots
	kind  int32
	actor int32
	arg   time.Duration
}

// slot states.
const (
	slotPending uint8 = iota
	slotCancelled
)

// slot tracks the lifecycle of one scheduled event for cancellation; slots
// are recycled through a free list once their event fires or its
// cancellation is collected.
type slot struct {
	gen   uint32
	state uint8
}

// Simulator is a discrete-event simulator instance.
type Simulator struct {
	now      time.Duration
	heap     []event // near band: 4-ary min-heap
	far      []event // far band: sorted FIFO, consumed from farHead
	farHead  int
	slots    []slot
	free     []int32
	live     int // scheduled and not cancelled
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
// keeping the heap, slot-table and free-list backing storage, so a recycled
// simulator schedules its next run without growing allocations. The
// registered dispatcher is kept. Every outstanding EventID is invalidated
// (slot generations are bumped, exactly as if the events had fired);
// holding a handle across Reset and cancelling it later is a harmless
// no-op, the same guarantee stale handles already have.
func (s *Simulator) Reset(seed int64) {
	s.heap = s.heap[:0]
	s.far = s.far[:0]
	s.farHead = 0
	s.free = s.free[:0]
	for i := range s.slots {
		s.slots[i].gen++
		s.slots[i].state = slotPending
		s.free = append(s.free, int32(i))
	}
	s.now = 0
	s.live = 0
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

// FarDepth reports the number of entries currently parked in the far band
// (cancelled entries included until they are lazily collected). It exists
// for tests and benchmarks that assert the fast-forward band is actually
// absorbing a pre-scheduled timeline.
func (s *Simulator) FarDepth() int { return len(s.far) - s.farHead }

// Pending reports the number of events currently scheduled (cancelled
// events are excluded even before their slots are collected).
func (s *Simulator) Pending() int { return s.live }

// ScheduleEvent queues a typed event after delay (see Dispatcher). It
// panics on negative delays: scheduling into the past is always a bug in
// the calling model.
func (s *Simulator) ScheduleEvent(delay time.Duration, kind, actor int32, arg time.Duration) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	return s.AtEvent(s.now+delay, kind, actor, arg)
}

// AtEvent queues a typed event at absolute simulated time t (>= Now). The
// (kind, actor, arg) triple is delivered to the registered Dispatcher when
// the event fires. AtEvent allocates nothing in steady state.
func (s *Simulator) AtEvent(t time.Duration, kind, actor int32, arg time.Duration) EventID {
	if s.dispatch == nil {
		panic("des: AtEvent without a dispatcher (call SetDispatcher first)")
	}
	return s.push(t, kind, actor, arg)
}

// push allocates a slot (reusing the free list) and routes the event to a
// band: an event at or after the latest parked instant appends to the far
// band in O(1); anything earlier sifts into the near heap.
func (s *Simulator) push(t time.Duration, kind, actor int32, arg time.Duration) EventID {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1})
		id = int32(len(s.slots) - 1)
	}
	sl := &s.slots[id]
	sl.state = slotPending
	ev := event{at: t, seq: s.seq, slot: id, kind: kind, actor: actor, arg: arg}
	s.seq++
	s.live++
	if n := len(s.far); n == s.farHead || !before(&ev, &s.far[n-1]) {
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
	return EventID{slot: id, gen: sl.gen}
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled or zero-valued handle is a no-op.
func (s *Simulator) Cancel(id EventID) {
	if id.gen == 0 || int(id.slot) >= len(s.slots) {
		return
	}
	sl := &s.slots[id.slot]
	if sl.gen != id.gen || sl.state != slotPending {
		return
	}
	sl.state = slotCancelled
	s.live--
}

// Cancelled reports whether the event was cancelled before firing. A handle
// whose event has already fired reports false; the zero handle reports
// false.
func (s *Simulator) Cancelled(id EventID) bool {
	if id.gen == 0 || int(id.slot) >= len(s.slots) {
		return false
	}
	sl := &s.slots[id.slot]
	return sl.gen == id.gen && sl.state == slotCancelled
}

// release recycles a slot for reuse; bumping the generation invalidates any
// outstanding EventID.
func (s *Simulator) release(id int32) {
	s.slots[id].gen++
	s.free = append(s.free, id)
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

// popFar removes the far-band head.
func (s *Simulator) popFar() event {
	ev := s.far[s.farHead]
	s.farHead++
	if s.farHead == len(s.far) {
		s.far = s.far[:0]
		s.farHead = 0
	}
	return ev
}

// popNext removes and returns the globally earliest entry across both
// bands, collecting cancelled entries along the way.
func (s *Simulator) popNext() (event, bool) {
	for {
		var ev event
		switch {
		case s.farMin():
			ev = s.popFar()
		case len(s.heap) > 0:
			ev = s.heap[0]
			s.popRoot()
		default:
			return event{}, false
		}
		if s.slots[ev.slot].state == slotCancelled {
			s.release(ev.slot)
			continue
		}
		return ev, true
	}
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	ev, ok := s.popNext()
	if !ok {
		return false
	}
	s.release(ev.slot)
	s.live--
	s.now = ev.at
	s.fired++
	s.dispatch(ev.kind, ev.actor, ev.arg)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled after the deadline remain queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for {
		at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek reports the timestamp of the next non-cancelled event, collecting
// cancelled entries from both bands along the way.
func (s *Simulator) peek() (time.Duration, bool) {
	for {
		var ev *event
		far := s.farMin()
		if far {
			ev = &s.far[s.farHead]
		} else if len(s.heap) > 0 {
			ev = &s.heap[0]
		} else {
			return 0, false
		}
		if s.slots[ev.slot].state == slotCancelled {
			s.release(ev.slot)
			if far {
				s.popFar()
			} else {
				s.popRoot()
			}
			continue
		}
		return ev.at, true
	}
}

// ---- flat 4-ary min-heap, ordered by (at, seq) ----
//
// A 4-ary layout halves the tree depth of a binary heap; with value-typed
// events the four-child comparison loop stays in one or two cache lines, so
// pops touch fewer lines than a deeper binary sift would.

// before reports heap ordering between two events.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
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
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if before(&h[c], &h[best]) {
				best = c
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
