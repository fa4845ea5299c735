// Package engine provides the concurrent batch-evaluation primitives every
// layer of the repository shares: a bounded worker pool with deterministic
// result ordering (Map, MapSlice), a deterministic per-task seed derivation
// (DeriveSeed) and a memoizing single-flight cache (Cache).
//
// # Concurrency and determinism contract
//
// Every sweep in this repository — the Fig. 6 contention curves, the Fig. 7/8
// energy sweeps, the §5 case-study integration — is a batch of independent
// evaluations. The engine runs such batches on a pool of workers under the
// following contract:
//
//   - Results are identified by task index, never by completion order.
//     Map/MapSlice write task i's result into slot i, so the assembled output
//     is identical at any worker count.
//   - Randomized tasks must derive their seed from the run seed and their
//     task index via DeriveSeed, never from shared RNG state. A task's random
//     stream then depends only on (run seed, index), making the whole batch
//     bit-identical at Workers = 1, 4 or NumCPU.
//   - Errors are deterministic too: Map reports the error of the
//     lowest-indexed failing task, regardless of which worker hit it first.
//   - Cancellation is prompt: once ctx is canceled no new task starts, and
//     Map returns ctx.Err() after in-flight tasks drain.
//
// Expensive memoizable computations (one Monte-Carlo contention
// characterization per (payload, load, config) point, say) go through Cache,
// which guarantees a value is computed exactly once even when many workers
// request the same key concurrently.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ResolveWorkers normalizes a worker-count request: n ≥ 1 is used as given;
// zero or negative selects runtime.NumCPU(). It is the single authority on
// that rule — the core sweeps (via Map/MapSlice), netsim.RunReplicas and the
// service worker-token limiter all resolve their Workers knobs here, so "0
// means the whole machine" cannot drift between layers.
func ResolveWorkers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// Map runs fn(0), …, fn(n-1) on a pool of workers (0 ⇒ NumCPU) and waits for
// completion. fn must write any output it produces into caller-owned storage
// at its own index; the engine guarantees no index runs twice.
//
// If any task fails, the remaining tasks are abandoned and the error of the
// lowest-indexed failing task is returned. If ctx is canceled first, no new
// task starts and ctx.Err() is returned.
func Map(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	taskBatches.Inc()
	batchStart := time.Now()
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			taskStart := time.Now()
			err := fn(i)
			observeTask(batchStart, taskStart, time.Now())
			if err != nil {
				return err
			}
		}
		return nil
	}

	m := &mapRun{ctx: ctx, n: n, fn: fn, batchStart: batchStart, failedAt: n}
	m.next.Store(-1)
	// One func value for every go statement: a method value or closure per
	// goroutine would allocate once each.
	work := m.work
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	m.wg.Wait()
	if m.err != nil {
		return m.err
	}
	return ctx.Err()
}

// mapRun is the shared state of one multi-worker Map call, in one heap
// object: the next index to hand out, the failure flag the workers poll, the
// wait group, and the lowest failing index with its error, set under mu.
type mapRun struct {
	ctx        context.Context
	n          int
	fn         func(i int) error
	batchStart time.Time

	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup

	mu       sync.Mutex
	failedAt int // lowest failing index so far; n while none has failed
	err      error
}

// work is one Map worker: it runs tasks in index order until none is left,
// a task has failed or ctx is done.
func (m *mapRun) work() {
	defer m.wg.Done()
	for {
		if m.failed.Load() || m.ctx.Err() != nil {
			return
		}
		i := int(m.next.Add(1))
		if i >= m.n {
			return
		}
		taskStart := time.Now()
		err := m.fn(i)
		observeTask(m.batchStart, taskStart, time.Now())
		if err != nil {
			m.mu.Lock()
			if i < m.failedAt {
				m.failedAt, m.err = i, err
			}
			m.mu.Unlock()
			m.failed.Store(true)
			return
		}
	}
}

// MapSlice applies fn to every element of in on a worker pool and returns
// the results in input order. See Map for the concurrency, determinism and
// error contract.
func MapSlice[T, R any](ctx context.Context, workers int, in []T, fn func(i int, v T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := Map(ctx, workers, len(in), func(i int) error {
		r, err := fn(i, in[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeriveSeed maps a run seed and a task/stream index to an independent child
// seed with a splitmix64 finalizer. The derivation is pure, so any shard of
// a batch can recompute its seed from (root, stream) alone — the foundation
// of the worker-count-independent determinism contract.
func DeriveSeed(root, stream int64) int64 {
	z := uint64(root) + (uint64(stream)+1)*0x9E3779B97F4A7C15
	if z == 0 {
		// The splitmix64 finalizer fixes zero, so a zero pre-mix input
		// would hand the caller back seed 0 — and with it its own root:
		// DeriveSeed(0, -1) was 0, collapsing netsim's node-stream domain
		// onto the shard/replica domains for the default seed. Displace
		// the one degenerate input with a constant that is no reachable
		// multiple of the gamma (its gamma-quotient is ≈ 2^63), so the
		// displaced stream cannot alias another stream of the same root.
		z = 0xD1B54A32D192ED03
	}
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
