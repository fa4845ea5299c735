package engine

import (
	"context"
	"sync"
)

// Cache is a memoizing single-flight map: Get computes the value for a key
// exactly once, even under concurrent requests, and serves every later
// request from memory. A batch computed outside the cache claims its keys
// with Acquire and publishes them, or abandons those it does not finish. The zero value is an unbounded cache ready for use;
// SetLimit bounds it with LRU eviction. It backs the shared contention
// cache: a sweep that evaluates many model points at the same (payload,
// load, contention config) simulates the Monte-Carlo characterization once
// instead of once per point, and a long-running service sweeping an
// unbounded parameter space stays within a fixed memory budget.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	m     map[K]*cacheEntry[K, V]
	// Intrusive recency list: head is most recently used, tail least.
	head, tail *cacheEntry[K, V]

	hits, misses, evictions uint64
}

type cacheEntry[K comparable, V any] struct {
	key K
	// val, done, abandoned and wake are guarded by Cache.mu. The owner
	// settles the entry once: done when it publishes val, abandoned when it
	// gives the entry up. wake, made by the first caller that waits on the
	// unsettled entry, is closed when it settles.
	val        V
	done       bool
	abandoned  bool
	wake       chan struct{}
	prev, next *cacheEntry[K, V]
}

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	// Hits counts Gets served from an existing entry (including entries
	// still computing that the caller then waited on).
	Hits uint64
	// Misses counts Gets that had to create the entry and run compute.
	Misses uint64
	// Evictions counts entries dropped by the LRU bound (Reset not
	// included).
	Evictions uint64
	// Entries is the current number of cached keys.
	Entries int
	// Limit is the configured bound (0 = unbounded).
	Limit int
}

// HitRate reports Hits/(Hits+Misses), 0 when the cache is untouched.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// SetLimit bounds the cache to at most n entries, evicting least recently
// used entries when the bound is exceeded; n ≤ 0 removes the bound. The
// bound is enforced immediately and on every later insertion. Entries whose
// computation is still in flight are never evicted, so the instantaneous
// size can transiently exceed n by the number of concurrent computations.
func (c *Cache[K, V]) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.limit = n
	c.evictLocked()
}

// Limit reports the configured entry bound (0 = unbounded).
func (c *Cache[K, V]) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Get returns the cached value for key, running compute on a miss.
// Concurrent callers with the same key block until the single computation
// finishes and then share its result; if the key's owner abandons it
// instead, a waiting Get claims the key again. Get refreshes the key's
// recency; a miss may evict the least recently used completed entry when a
// limit is set. A compute that panics publishes the zero value, so the
// panic never leaves other callers of the key waiting.
func (c *Cache[K, V]) Get(key K, compute func() V) V {
	for {
		f := c.Acquire(key)
		if f.Owner() {
			return f.compute(compute)
		}
		if v, ok := f.Wait(context.Background()); ok {
			return v
		}
	}
}

// compute publishes compute's value — the zero value if it panics.
func (f Flight[K, V]) compute(compute func() V) (v V) {
	defer func() { f.Publish(v) }()
	return compute()
}

// Flight is one caller's claim on a cache entry, from Acquire. The caller
// that created the entry owns it and must settle it exactly once: Publish
// its value, or Abandon it. Everyone else reads the value with Wait, which
// blocks until the entry settles.
type Flight[K comparable, V any] struct {
	c     *Cache[K, V]
	e     *cacheEntry[K, V]
	owner bool
	ready bool
}

// Acquire returns key's flight: the existing entry (a hit, computed or
// still in flight) or a new one this caller owns (a miss). It counts and
// refreshes recency exactly as Get does, so a batch of values computed
// together outside the cache — Acquire each, compute the owned ones, then
// Publish them — keeps the single-flight and the hit/miss accounting of one
// Get per key. An owner must settle every flight it owns before it waits
// on any other flight, or two batches could wait on each other.
func (c *Cache[K, V]) Acquire(key K) Flight[K, V] {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[K, V])
	}
	e, ok := c.m[key]
	if ok {
		c.hits++
		c.moveToFrontLocked(e)
	} else {
		c.misses++
		e = &cacheEntry[K, V]{key: key}
		c.m[key] = e
		c.pushFrontLocked(e)
		c.evictLocked()
	}
	ready := e.done
	c.mu.Unlock()
	return Flight[K, V]{c: c, e: e, owner: !ok, ready: ready}
}

// Owner reports whether this caller created the entry and so must
// Publish or Abandon it.
func (f Flight[K, V]) Owner() bool { return f.owner }

// Ready reports whether the value was already published when the flight
// was acquired, so Wait returns at once.
func (f Flight[K, V]) Ready() bool { return f.ready }

// Publish stores the owner's value and releases every waiter.
func (f Flight[K, V]) Publish(v V) {
	c, e := f.c, f.e
	c.mu.Lock()
	e.val, e.done = v, true
	if e.wake != nil {
		close(e.wake)
	}
	c.mu.Unlock()
}

// Abandon gives up an owned entry without a value: it drops the entry from
// the cache, so the next Acquire of the key owns a fresh one, and releases
// every waiter with no value. An owner whose caller was canceled abandons
// the entries it has not computed instead of computing them for nobody.
func (f Flight[K, V]) Abandon() {
	c, e := f.c, f.e
	c.mu.Lock()
	// After a Reset the entry is no longer the key's, nor on the list.
	if c.m[e.key] == e {
		c.unlinkLocked(e)
		delete(c.m, e.key)
	}
	e.abandoned = true
	if e.wake != nil {
		close(e.wake)
	}
	c.mu.Unlock()
}

// Wait returns the entry's value once it is published, with true. It
// returns false without a value when the owner abandons the entry — the
// caller may Acquire the key again — or when ctx is done first.
func (f Flight[K, V]) Wait(ctx context.Context) (V, bool) {
	c, e := f.c, f.e
	c.mu.Lock()
	if !e.done && !e.abandoned {
		// The first caller to block makes the channel the owner closes,
		// so an entry nobody waits on costs no allocation for it.
		if e.wake == nil {
			e.wake = make(chan struct{})
		}
		wake := e.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		}
		c.mu.Lock()
	}
	v, ok := e.val, e.done
	c.mu.Unlock()
	return v, ok
}

// Len reports the number of cached keys (including any still computing).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats snapshots the cache counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.m),
		Limit:     c.limit,
	}
}

// Reset drops every cached entry, keeping the limit and the cumulative
// hit/miss/eviction counters. Long-running services sweeping unbounded
// parameter spaces can Reset between sweeps; with a SetLimit bound in place
// the cache also polices itself.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.head, c.tail = nil, nil
	c.mu.Unlock()
}

// pushFrontLocked inserts e at the recency head. Callers hold c.mu.
func (c *Cache[K, V]) pushFrontLocked(e *cacheEntry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// moveToFrontLocked refreshes e's recency. Callers hold c.mu.
func (c *Cache[K, V]) moveToFrontLocked(e *cacheEntry[K, V]) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// unlinkLocked removes e from the recency list. Callers hold c.mu.
func (c *Cache[K, V]) unlinkLocked(e *cacheEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictLocked drops completed entries from the LRU tail until the bound
// holds. In-flight entries are skipped: evicting one would let a concurrent
// Get for the same key start a duplicate computation. Callers hold c.mu.
func (c *Cache[K, V]) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for e := c.tail; e != nil && len(c.m) > c.limit; {
		prev := e.prev
		if e.done {
			c.unlinkLocked(e)
			delete(c.m, e.key)
			c.evictions++
		}
		e = prev
	}
}
