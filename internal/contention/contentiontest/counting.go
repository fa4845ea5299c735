// Package contentiontest provides test helpers for contention lookups: a
// Source that counts its lookups, and a probe for how many goroutines a
// call runs at once.
package contentiontest

import (
	"runtime"
	"sync/atomic"
	"time"

	"dense802154/internal/contention"
)

// Counting wraps a source and counts every lookup. A pointer to it is a
// comparable Source, safe for concurrent use.
type Counting struct {
	// Inner answers the lookups.
	Inner contention.Source

	calls atomic.Int64
}

// Contention implements contention.Source.
func (c *Counting) Contention(payloadBytes int, load float64) contention.Stats {
	c.calls.Add(1)
	return c.Inner.Contention(payloadBytes, load)
}

// Calls reports how many lookups the source answered.
func (c *Counting) Calls() int64 { return c.calls.Load() }

// PeakGoroutines runs fn and reports the most goroutines that were alive
// at once during it beyond those alive before it, sampling
// runtime.NumGoroutine every 50 µs on a goroutine of its own, which it does
// not count. Samples can miss a short-lived peak, never invent one, so the
// result is a lower bound on fn's concurrency: a test can assert with it
// that fn stays within a worker grant. The caller must not start other
// goroutines meanwhile.
func PeakGoroutines(fn func()) int {
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, runtime.NumGoroutine()-base-1)
			select {
			case <-stop:
				peak <- most
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	fn()
	close(stop)
	return <-peak
}
