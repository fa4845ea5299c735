package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// closures schedules test callbacks as typed events: at and after append
// the callback to fns and schedule an event whose actor indexes it, and the
// dispatcher calls fns[actor].
type closures struct {
	*Simulator
	fns []func()
}

func newClosures(seed int64) *closures {
	c := &closures{Simulator: New(seed)}
	c.SetDispatcher(func(_, actor int32, _ time.Duration) { c.fns[actor]() })
	return c
}

// at runs fn at absolute simulated time t.
func (c *closures) at(t time.Duration, fn func()) {
	c.fns = append(c.fns, fn)
	c.AtEvent(t, 0, int32(len(c.fns)-1), 0)
}

// after runs fn once delay has elapsed.
func (c *closures) after(delay time.Duration, fn func()) {
	c.fns = append(c.fns, fn)
	c.ScheduleEvent(delay, 0, int32(len(c.fns)-1), 0)
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := newClosures(1)
	var order []time.Duration
	delays := []time.Duration{50, 10, 30, 20, 40}
	for _, d := range delays {
		s.after(d*time.Microsecond, func() {
			order = append(order, s.Now())
		})
	}
	s.Run()
	if len(order) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(order), len(delays))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 50*time.Microsecond {
		t.Fatalf("final time %v, want 50µs", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := newClosures(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.after(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time ordering violated at %d: got %d", i, v)
		}
	}
}

func TestScheduleFromHandler(t *testing.T) {
	s := newClosures(1)
	var times []time.Duration
	s.after(time.Millisecond, func() {
		times = append(times, s.Now())
		s.after(time.Millisecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(times) != 2 || times[0] != want[0] || times[1] != want[1] {
		t.Fatalf("got %v, want %v", times, want)
	}
}

func TestTypedDispatch(t *testing.T) {
	s := New(1)
	type rec struct {
		kind, actor int32
		arg, at     time.Duration
	}
	var got []rec
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {
		got = append(got, rec{kind, actor, arg, s.Now()})
	})
	s.AtEvent(2*time.Millisecond, 7, 42, 5*time.Millisecond)
	s.ScheduleEvent(time.Millisecond, 3, -1, 0)
	s.Run()
	want := []rec{
		{3, -1, 0, time.Millisecond},
		{7, 42, 5 * time.Millisecond, 2 * time.Millisecond},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("typed dispatch got %v, want %v", got, want)
	}
}

func TestAtEventWithoutDispatcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on AtEvent without dispatcher")
		}
	}()
	New(1).AtEvent(time.Millisecond, 0, 0, 0)
}

func TestRunUntil(t *testing.T) {
	s := newClosures(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.after(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunUntil(5 * time.Millisecond)
	if count != 5 {
		t.Fatalf("RunUntil fired %d events, want 5", count)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("now %v, want 5ms", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending %d, want 5", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("total fired %d, want 10", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New(1)
	s.RunUntil(42 * time.Second)
	if s.Now() != 42*time.Second {
		t.Fatalf("now %v, want 42s", s.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	newClosures(1).after(-time.Second, func() {})
}

func TestPastAtPanics(t *testing.T) {
	s := newClosures(1)
	s.after(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on scheduling in the past")
		}
	}()
	s.at(time.Millisecond, func() {})
}

func TestDeterminismForFixedSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := newClosures(seed)
		var out []time.Duration
		var spawn func()
		n := 0
		spawn = func() {
			out = append(out, s.Now())
			n++
			if n < 200 {
				d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
				s.after(d, spawn)
			}
		}
		s.after(0, spawn)
		s.Run()
		return out
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFiredCounter(t *testing.T) {
	s := newClosures(1)
	for i := 0; i < 7; i++ {
		s.after(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
}

func TestMaxHeapDepth(t *testing.T) {
	s := newClosures(1)
	if s.MaxHeapDepth() != 0 {
		t.Fatalf("fresh MaxHeapDepth = %d, want 0", s.MaxHeapDepth())
	}
	for i := 0; i < 9; i++ {
		s.after(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.MaxHeapDepth() != 9 {
		t.Fatalf("MaxHeapDepth = %d, want 9 (all scheduled before any fired)", s.MaxHeapDepth())
	}
	s.Reset(1)
	if s.MaxHeapDepth() != 0 {
		t.Fatalf("MaxHeapDepth after Reset = %d, want 0", s.MaxHeapDepth())
	}
	// Interleaved schedule/fire: the mark tracks the peak, not the total.
	s.after(time.Millisecond, func() { s.after(time.Millisecond, func() {}) })
	s.Run()
	if s.Fired() != 2 || s.MaxHeapDepth() != 1 {
		t.Fatalf("Fired = %d MaxHeapDepth = %d, want 2 and 1", s.Fired(), s.MaxHeapDepth())
	}
}

// Property: for any set of non-negative delays, events fire sorted by time
// and the number fired equals the number scheduled.
func TestPropertyOrderedFiring(t *testing.T) {
	f := func(raw []uint16) bool {
		s := newClosures(3)
		var fired []time.Duration
		for _, r := range raw {
			s.after(time.Duration(r)*time.Microsecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: for any set of non-negative delays and any cut instant,
// RunUntil(cut) fires exactly the events due at or before the cut, leaves
// the rest pending, and Run then fires the remainder.
func TestPropertyRunUntilSplit(t *testing.T) {
	f := func(raw []uint16, cut uint16) bool {
		s := newClosures(5)
		fired, due := 0, 0
		for _, r := range raw {
			if r <= cut {
				due++
			}
			s.after(time.Duration(r)*time.Microsecond, func() { fired++ })
		}
		s.RunUntil(time.Duration(cut) * time.Microsecond)
		if fired != due || s.Pending() != len(raw)-due || s.Now() != time.Duration(cut)*time.Microsecond {
			return false
		}
		s.Run()
		return fired == len(raw) && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeapStressRandomOrder(t *testing.T) {
	s := newClosures(9)
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	var last time.Duration
	ok := true
	for i := 0; i < n; i++ {
		s.after(time.Duration(rng.Intn(1_000_000))*time.Nanosecond, func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !ok {
		t.Fatal("heap delivered events out of order under stress")
	}
}

func TestHeapStressInterleaved(t *testing.T) {
	// Schedule a bulk of random instants, then let handlers schedule more
	// while the bulk drains; order and counts must hold under the churn.
	s := newClosures(11)
	rng := rand.New(rand.NewSource(7))
	fired, spawned := 0, 0
	var last time.Duration
	ordered := true
	count := func() {
		fired++
		if s.Now() < last {
			ordered = false
		}
		last = s.Now()
	}
	for i := 0; i < 3000; i++ {
		s.after(time.Duration(rng.Intn(1_000_000)), count)
	}
	var respawn func()
	respawn = func() {
		spawned++
		count()
		if spawned < 100 {
			s.after(time.Duration(rng.Intn(500_000)), respawn)
		}
	}
	s.after(0, respawn)
	s.Run()
	if !ordered {
		t.Fatal("heap delivered events out of order under churn")
	}
	if fired != 3000+100 || spawned != 100 {
		t.Fatalf("fired = %d spawned = %d, want 3100 and 100", fired, spawned)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after Run", s.Pending())
	}
}

// TestTypedEventLoopAllocFree is the allocation-regression guard for the
// kernel: a steady-state schedule→fire cycle through the typed path must
// not allocate once the heap has warmed up.
func TestTypedEventLoopAllocFree(t *testing.T) {
	s := New(1)
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {
		if kind < 8 {
			s.ScheduleEvent(time.Duration(s.Rand().Intn(1000))*time.Microsecond, kind+1, actor, arg)
		}
	})
	// Warm up the internal slices.
	for i := 0; i < 64; i++ {
		s.ScheduleEvent(time.Duration(i)*time.Microsecond, 0, int32(i), 0)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.ScheduleEvent(time.Duration(i)*time.Microsecond, 0, int32(i), 0)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed event loop allocated %v per cycle, want 0", allocs)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleEvent(time.Duration(i%64)*time.Microsecond, 0, 0, 0)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
}

func TestResetReplaysIdentically(t *testing.T) {
	// A reset simulator must replay a schedule exactly as a fresh one,
	// reusing its storage: same firing order, same clock, same RNG stream,
	// and events still pending at the Reset must never fire afterwards.
	run := func(s *Simulator) ([]int32, uint64) {
		var order []int32
		s.SetDispatcher(func(kind, actor int32, arg time.Duration) {
			order = append(order, actor)
			if kind == 1 {
				s.AtEvent(s.Now()+3*time.Millisecond, 0, actor+100, 0)
			}
		})
		s.AtEvent(2*time.Millisecond, 1, 1, 0)
		s.AtEvent(1*time.Millisecond, 0, 2, 0)
		s.AtEvent(5*time.Millisecond, 0, 3, 0)
		s.Run()
		return order, s.rng.Uint64()
	}

	fresh := New(42)
	wantOrder, wantDraw := run(fresh)

	s := New(7)
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
	s.AtEvent(time.Millisecond, 0, 0, 0)
	s.AtEvent(2*time.Millisecond, 0, 0, 0)
	s.Run()
	// Left pending across the Reset, in both bands: a parked far-band
	// instant and an earlier near-heap insert.
	s.AtEvent(3*time.Millisecond, 0, -7, 0)
	s.AtEvent(2500*time.Microsecond, 0, -8, 0)
	s.Reset(42)
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 {
		t.Fatalf("Reset left state behind: now=%v fired=%d pending=%d", s.Now(), s.Fired(), s.Pending())
	}
	gotOrder, gotDraw := run(s)
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("firing counts differ: %v vs %v (an event pending at Reset fired?)", gotOrder, wantOrder)
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("firing order differs after Reset: %v vs %v", gotOrder, wantOrder)
		}
	}
	if gotDraw != wantDraw {
		t.Fatalf("RNG stream differs after Reset: %d vs %d", gotDraw, wantDraw)
	}
}

func TestResetReusesStorage(t *testing.T) {
	s := New(1)
	s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
	churn := func() {
		for i := 0; i < 256; i++ {
			s.ScheduleEvent(time.Duration(i)*time.Microsecond, 0, int32(i), 0)
		}
		s.Run()
	}
	churn()
	s.Reset(2)
	allocs := testing.AllocsPerRun(10, func() {
		churn()
		s.Reset(2)
	})
	if allocs > 0 {
		t.Fatalf("reset simulator allocated %v per cycle, want 0", allocs)
	}
}
