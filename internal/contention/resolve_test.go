package contention_test

import (
	"context"
	"testing"
	"time"

	"dense802154/internal/contention"
	"dense802154/internal/contention/contentiontest"
)

func statsOf(r contention.Result) contention.Stats {
	return contention.Stats{Tcont: r.MeanContention, NCCA: r.MeanCCAs, PrCF: r.PrCF, PrCol: r.PrCol}
}

// TestContentionExactLoad pins the cache key to the exact load: two loads
// that round to the same thousandth are two points, each answered with its
// own simulation whatever was asked before — not with the statistics of
// whichever load was asked first.
func TestContentionExactLoad(t *testing.T) {
	contention.ResetCache()
	src := contention.NewMCSource(contention.Config{Superframes: 12, Seed: 7})
	first := src.Contention(120, 0.4331)
	got := src.Contention(120, 0.4334)
	want := statsOf(contention.Simulate(contention.Config{PayloadBytes: 120, TargetLoad: 0.4334, Superframes: 12, Seed: 7}))
	if got != want {
		t.Fatalf("Contention(120, 0.4334) after 0.4331 = %+v, want its own simulation %+v", got, want)
	}
	if got == first {
		t.Fatal("the two loads simulate alike; the test no longer tells the keys apart")
	}
}

// TestResolveMatchesSimulate: a batch mixing cached points, points asked
// twice, multi-shard runs, another source and a request without one
// answers every sourced request with Simulate's own statistics at every
// worker count, skips the sourceless one, and leaves the simulated points
// in the cache for MCSource.Contention.
func TestResolveMatchesSimulate(t *testing.T) {
	base := contention.Config{Superframes: 20, Seed: 11} // three shards
	src := contention.NewMCSource(base)
	other := contention.NewMCSource(contention.Config{Superframes: 5, Seed: 12})
	lookups := []contention.Lookup{
		{Source: src, PayloadBytes: 20, Load: 0.2},
		{Source: src, PayloadBytes: 120, Load: 0.5},
		{Source: other, PayloadBytes: 60, Load: 0.3},
		{Source: src, PayloadBytes: 20, Load: 0.2},
		{Source: contention.Approx{}, PayloadBytes: 60, Load: 0.3},
		{Source: src, PayloadBytes: 80, Load: 0.7},
		{PayloadBytes: 40, Load: 0.1, Stats: contention.Stats{NCCA: -1}}, // no source: skipped
	}
	want := make([]contention.Stats, len(lookups))
	for i, l := range lookups {
		switch mc, ok := l.Source.(*contention.MCSource); {
		case ok:
			cfg := mc.Base
			cfg.PayloadBytes, cfg.TargetLoad = l.PayloadBytes, l.Load
			want[i] = statsOf(contention.Simulate(cfg))
		case l.Source != nil:
			want[i] = l.Source.Contention(l.PayloadBytes, l.Load)
		default:
			want[i] = l.Stats // left as it was
		}
	}
	for _, workers := range []int{1, 3} {
		contention.ResetCache()
		src.Contention(120, 0.5) // one point is cached already
		before := contention.CacheStats()
		got := append([]contention.Lookup(nil), lookups...)
		if err := contention.Resolve(context.Background(), workers, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Stats != want[i] {
				t.Fatalf("workers=%d: lookup %d = %+v, want %+v", workers, i, got[i].Stats, want[i])
			}
		}
		after := contention.CacheStats()
		if misses := after.Misses - before.Misses; misses != 3 {
			t.Fatalf("workers=%d: %d cache misses, want 3 (the uncached distinct points)", workers, misses)
		}
		if c := src.Contention(80, 0.7); c != want[5] || contention.CacheStats().Misses != after.Misses {
			t.Fatalf("workers=%d: a resolved point is not served from the cache", workers)
		}
	}
}

// TestResolveHonorsGrant: every shard of every point Resolve simulates
// runs inside its one map, never on more goroutines than the workers
// granted, and each point is simulated once.
func TestResolveHonorsGrant(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		contention.ResetCache()
		before := contention.CacheStats().Misses
		src := contention.NewMCSource(contention.Config{Superframes: 64, Seed: int64(20 + workers)})
		lookups := make([]contention.Lookup, 6)
		for i := range lookups {
			lookups[i] = contention.Lookup{Source: src, PayloadBytes: 20 + 20*i, Load: 0.6}
		}
		var err error
		peak := contentiontest.PeakGoroutines(func() { err = contention.Resolve(context.Background(), workers, lookups) })
		if err != nil {
			t.Fatal(err)
		}
		// A single worker runs the map on the caller's goroutine.
		if grant := workers; peak > grant || (workers == 1 && peak != 0) {
			t.Fatalf("workers=%d: up to %d goroutines ran the shards", workers, peak)
		}
		if m := contention.CacheStats().Misses - before; m != uint64(len(lookups)) {
			t.Fatalf("workers=%d: %d simulations of %d points", workers, m, len(lookups))
		}
	}
}

// TestResolveJoinsAnotherFlight: a point another caller is simulating is
// waited for, not simulated again.
func TestResolveJoinsAnotherFlight(t *testing.T) {
	contention.ResetCache()
	before := contention.CacheStats().Misses
	src := contention.NewMCSource(contention.Config{Superframes: 64, Seed: 13})
	done := make(chan contention.Stats)
	go func() { done <- src.Contention(100, 0.6) }()
	got := []contention.Lookup{{Source: src, PayloadBytes: 100, Load: 0.6}}
	if err := contention.Resolve(context.Background(), 2, got); err != nil {
		t.Fatal(err)
	}
	if other := <-done; got[0].Stats != other {
		t.Fatalf("Resolve = %+v, the concurrent lookup = %+v", got[0].Stats, other)
	}
	if m := contention.CacheStats().Misses - before; m != 1 {
		t.Fatalf("%d simulations of one point", m)
	}
}

// TestResolveCancel: a canceled Resolve stops between shards and returns
// the context's error; a caller waiting on a point it simulates stops
// waiting when its own context is done; and the points it abandons are
// simulated afresh — to Simulate's bits — by the next caller, including
// one that was already waiting on them.
func TestResolveCancel(t *testing.T) {
	contention.ResetCache()
	base := contention.Config{Superframes: 4000, Seed: 17} // seconds of shards
	src := contention.NewMCSource(base)
	ctx, cancel := context.WithCancel(context.Background())
	owner := make(chan error)
	go func() {
		owner <- contention.Resolve(ctx, 1, []contention.Lookup{{Source: src, PayloadBytes: 100, Load: 0.6}})
	}()
	// Wait until the owner has claimed the point.
	for contention.CacheStats().Entries == 0 {
		time.Sleep(time.Millisecond)
	}

	short, stop := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer stop()
	if err := contention.Resolve(short, 1, []contention.Lookup{{Source: src, PayloadBytes: 100, Load: 0.6}}); err != context.DeadlineExceeded {
		t.Fatalf("a waiter whose context expired got %v, want context.DeadlineExceeded", err)
	}

	// A cheap point: the owner's run, once canceled, is redone in full.
	small := contention.NewMCSource(contention.Config{Superframes: 16, Seed: 17})
	ctx2, cancel2 := context.WithCancel(context.Background())
	owner2 := make(chan error)
	gate := make(chan struct{})
	go func() {
		<-gate
		owner2 <- contention.Resolve(ctx2, 1, []contention.Lookup{
			{Source: src, PayloadBytes: 40, Load: 0.6}, // long: holds the map
			{Source: small, PayloadBytes: 30, Load: 0.5},
		})
	}()
	close(gate)
	for contention.CacheStats().Entries < 3 {
		time.Sleep(time.Millisecond)
	}
	joined := make(chan contention.Stats)
	go func() { joined <- small.Contention(30, 0.5) }()
	time.Sleep(5 * time.Millisecond) // let the lookup join the flight
	cancel2()
	cancel()
	for _, ch := range []chan error{owner, owner2} {
		select {
		case err := <-ch:
			if err != context.Canceled {
				t.Fatalf("canceled Resolve returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a canceled Resolve ran on")
		}
	}
	want := statsOf(contention.Simulate(contention.Config{PayloadBytes: 30, TargetLoad: 0.5, Superframes: 16, Seed: 17}))
	select {
	case got := <-joined:
		if got != want {
			t.Fatalf("lookup re-claiming an abandoned point = %+v, want %+v", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a lookup joined to an abandoned point never returned")
	}
	if e := contention.CacheStats().Entries; e != 1 {
		t.Fatalf("%d cache entries after the cancellations, want only the re-claimed point", e)
	}
}

// TestResolvePanicClaimsNothing: a batch holding an invalid run panics
// before it claims any point, so a valid point asked in the same batch is
// not left pinned for the next caller.
func TestResolvePanicClaimsNothing(t *testing.T) {
	contention.ResetCache()
	src := contention.NewMCSource(contention.Config{Superframes: 8, Seed: 19})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a negative load must panic")
			}
		}()
		_ = contention.Resolve(context.Background(), 1, []contention.Lookup{
			{Source: src, PayloadBytes: 50, Load: 0.3},
			{Source: src, PayloadBytes: 50, Load: -1},
		})
	}()
	done := make(chan contention.Stats)
	go func() { done <- src.Contention(50, 0.3) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the valid point of a panicking batch is still pinned")
	}
}
