package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// get returns key's value through the cache's fill protocol, computing it
// on a miss: the owner of the key's flight computes and Publishes it, and
// every other caller Waits on it, claiming the key again if its owner
// abandons it.
func get[K comparable, V any](c *Cache[K, V], key K, compute func() V) V {
	for {
		f := c.Acquire(key)
		if f.Owner() {
			v := compute()
			f.Publish(v)
			return v
		}
		if v, ok := f.Wait(context.Background()); ok {
			return v
		}
	}
}

func TestCacheSingleFlightAndCounters(t *testing.T) {
	var c Cache[int, int]
	var computes atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got := get(&c, i%10, func() int {
					computes.Add(1)
					return i % 10 * 7
				})
				if got != i%10*7 {
					t.Errorf("get(%d) = %d", i%10, got)
				}
			}
		}()
	}
	wg.Wait()

	if n := computes.Load(); n != 10 {
		t.Fatalf("computes = %d, want 10 (single flight)", n)
	}
	s := c.Stats()
	if s.Misses != 10 || s.Hits != 790 || s.Entries != 10 {
		t.Fatalf("stats = %+v, want 10 misses / 790 hits / 10 entries", s)
	}
	if hr := s.HitRate(); hr <= 0.9 {
		t.Fatalf("hit rate = %v, want > 0.9", hr)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	var c Cache[int, int]
	c.SetLimit(3)
	for i := 0; i < 5; i++ {
		get(&c, i, func() int { return i })
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	s := c.Stats()
	if s.Evictions != 2 || s.Limit != 3 {
		t.Fatalf("stats = %+v, want 2 evictions at limit 3", s)
	}
	// 0 and 1 were least recently used and must have been evicted; 2-4
	// must still be resident (their compute funcs must not rerun).
	for i := 2; i < 5; i++ {
		if got := get(&c, i, func() int { return -1 }); got != i {
			t.Fatalf("entry %d was evicted (got %d)", i, got)
		}
	}
	// Touch 2 so 3 becomes the LRU victim of the next insertion.
	get(&c, 2, func() int { return -1 })
	get(&c, 99, func() int { return 99 })
	if got := get(&c, 3, func() int { return -1 }); got != -1 {
		t.Fatal("entry 3 survived though it was the LRU victim")
	}
	if got := get(&c, 2, func() int { return -1 }); got != 2 {
		t.Fatal("recently touched entry 2 was evicted")
	}
}

func TestCacheSetLimitShrinksImmediately(t *testing.T) {
	var c Cache[int, int]
	for i := 0; i < 10; i++ {
		get(&c, i, func() int { return i })
	}
	c.SetLimit(4)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len after SetLimit(4) = %d, want 4", got)
	}
	c.SetLimit(0) // unbounded again
	for i := 0; i < 10; i++ {
		get(&c, 100+i, func() int { return i })
	}
	if got := c.Len(); got != 14 {
		t.Fatalf("Len unbounded = %d, want 14", got)
	}
}

func TestCacheInFlightEntriesAreNotEvicted(t *testing.T) {
	var c Cache[int, int]
	c.SetLimit(1)

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		done <- get(&c, 1, func() int {
			close(started)
			<-release
			return 42
		})
	}()
	<-started
	// Insertions while key 1 is still computing cannot evict it.
	for i := 2; i < 6; i++ {
		get(&c, i, func() int { return i })
	}
	close(release)
	if got := <-done; got != 42 {
		t.Fatalf("in-flight get = %d, want 42", got)
	}
	// Key 1 completed and must now be resident (it is the most recent
	// completion still linked); a second get must not recompute.
	if got := get(&c, 1, func() int { return -1 }); got != 42 {
		t.Fatalf("re-get(1) = %d, want cached 42", got)
	}
}

func TestCacheResetKeepsLimitAndCounters(t *testing.T) {
	var c Cache[string, int]
	c.SetLimit(5)
	get(&c, "a", func() int { return 1 })
	get(&c, "a", func() int { return 2 })
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset did not drop entries")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Limit != 5 {
		t.Fatalf("stats after Reset = %+v, want counters and limit kept", s)
	}
	if got := get(&c, "a", func() int { return 3 }); got != 3 {
		t.Fatalf("get after Reset = %d, want recomputed 3", got)
	}
}

func TestCacheConcurrentWithEviction(t *testing.T) {
	var c Cache[int, int]
	c.SetLimit(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*31 + i) % 40
				if got := get(&c, k, func() int { return k * 3 }); got != k*3 {
					t.Errorf("get(%d) = %d", k, got)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Len(); got > 8 {
		t.Fatalf("Len = %d, want ≤ 8 after all computations settle", got)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	var c Cache[int, int]
	c.Acquire(1).Publish(1)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Acquire(1).Wait(ctx)
	}
}

func ExampleCache() {
	var c Cache[string, string]
	c.SetLimit(100)
	if f := c.Acquire("fig6"); f.Owner() {
		f.Publish("simulated") // the owner computes the value outside the cache
	}
	v, _ := c.Acquire("fig6").Wait(context.Background())
	fmt.Println(v, c.Stats().Misses)
	// Output: simulated 1
}

// TestCacheFlights: the first Acquire of a key owns its flight and the
// value computed outside the cache reaches every other caller — those that
// joined before Publish block in Wait, later ones find it Ready — with
// each Acquire counted as one hit or one miss.
func TestCacheFlights(t *testing.T) {
	var c Cache[string, int]
	own := c.Acquire("k")
	if !own.Owner() || own.Ready() {
		t.Fatalf("first Acquire: owner %v ready %v, want an unpublished owned flight", own.Owner(), own.Ready())
	}
	joined := c.Acquire("k")
	if joined.Owner() || joined.Ready() {
		t.Fatal("second Acquire of an unpublished key must join it")
	}
	got := make(chan int)
	go func() { v, _ := joined.Wait(context.Background()); got <- v }()
	go func() {
		got <- get(&c, "k", func() int { t.Error("a joined caller recomputed a key in flight"); return 0 })
	}()
	own.Publish(42)
	for i := 0; i < 2; i++ {
		if v := <-got; v != 42 {
			t.Fatalf("waiter got %d, want 42", v)
		}
	}
	if late := c.Acquire("k"); late.Owner() || !late.Ready() {
		t.Fatal("a published key must be ready for later callers")
	}
	if v, ok := c.Acquire("k").Wait(context.Background()); !ok || v != 42 {
		t.Fatal("a published key must be ready for later callers")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 4 {
		t.Fatalf("stats %+v, want 1 miss and 4 hits", s)
	}
}

// TestCacheAbandon: an abandoned flight releases its waiters without a
// value, a get waiting on it claims the key and computes it, and the key
// is gone from the cache meanwhile, so the next Acquire owns it afresh.
func TestCacheAbandon(t *testing.T) {
	var c Cache[string, int]
	own := c.Acquire("k")
	joined := c.Acquire("k")
	waited := make(chan bool)
	go func() { _, ok := joined.Wait(context.Background()); waited <- ok }()
	got := make(chan int)
	go func() { got <- get(&c, "k", func() int { return 7 }) }()
	// Let both callers block on the flight before it is abandoned.
	for deadline := time.Now().Add(5 * time.Second); ; {
		c.mu.Lock()
		blocked := own.e.wake != nil
		c.mu.Unlock()
		if blocked || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	own.Abandon()
	if ok := <-waited; ok {
		t.Fatal("Wait on an abandoned flight reported a value")
	}
	if v := <-got; v != 7 {
		t.Fatalf("get after the owner abandoned = %d, want its own compute's 7", v)
	}
	if v, ok := c.Acquire("k").Wait(context.Background()); !ok || v != 7 {
		t.Fatalf("after the retry the key holds %d (%v), want 7", v, ok)
	}

	// Abandoning after a Reset leaves the new generation alone.
	stale := c.Acquire("s")
	c.Reset()
	fresh := c.Acquire("s")
	stale.Abandon()
	if !fresh.Owner() || c.Len() != 1 {
		t.Fatalf("abandoning a reset entry disturbed its successor (len %d)", c.Len())
	}
	fresh.Publish(1)
	if v, ok := c.Acquire("s").Wait(context.Background()); !ok || v != 1 {
		t.Fatal("the successor lost its value")
	}
}

// TestCacheWaitHonorsContext: a wait on a flight nobody settles returns
// when its context is done, without a value.
func TestCacheWaitHonorsContext(t *testing.T) {
	var c Cache[int, int]
	own := c.Acquire(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, ok := c.Acquire(1).Wait(ctx); ok {
		t.Fatal("Wait on an unsettled flight reported a value")
	}
	own.Publish(3)
	if v, ok := c.Acquire(1).Wait(ctx); !ok || v != 3 {
		t.Fatal("a published value must be returned even with a done context")
	}
}

// TestCacheEntriesCarvedFromChunks: new keys take their entries from
// chunks of entryChunk, so a steady stream of fresh keys under a limit
// costs well under one allocation per key (one apiece before chunking), and
// a settled entry still reads its value after its eviction: entries are
// never reused.
func TestCacheEntriesCarvedFromChunks(t *testing.T) {
	var c Cache[int, int]
	c.SetLimit(64)
	k := 0
	fresh := func() {
		c.Acquire(k).Publish(k)
		k++
	}
	for k < 1024 {
		fresh()
	}
	if allocs := testing.AllocsPerRun(64*entryChunk, fresh); allocs >= 1 {
		t.Fatalf("a fresh key cost %v allocations", allocs)
	}
	f := c.Acquire(-1)
	f.Publish(42)
	for i := 0; i < 4*entryChunk*64; i++ {
		fresh()
	}
	g := c.Acquire(-1)
	if !g.Owner() {
		t.Fatal("the entry of key -1 was not evicted: the test exercises nothing")
	}
	g.Abandon()
	if v, ok := f.Wait(context.Background()); !ok || v != 42 {
		t.Fatalf("an evicted entry reads %d (%v), want its published 42", v, ok)
	}
}
