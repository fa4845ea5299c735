package query

import (
	"context"
	"runtime/debug"
	"sync"
	"testing"
)

// grid1000Query is the 1,000-point grid of the end-to-end grid-cold
// workload under seed 7: losses 50→90 dB over 20 points × ten payloads ×
// BO 6..10, Monte-Carlo contention at 8 superframes. Its ResultSet body is
// the largest result the benchmarks encode (~1 MB).
func grid1000Query() Query {
	seed := int64(7)
	from, to, points := Float(50), Float(90), 20
	bo0, bo1 := 6, 10
	return Query{
		Kind:     KindGrid,
		Params:   &ParamsWire{Contention: &ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &Axis{From: &from, To: &to, Points: &points},
		Payloads: &IntAxis{Values: []int{10, 20, 30, 40, 50, 60, 70, 80, 100, 120}},
		BOs:      &IntAxis{From: &bo0, To: &bo1},
	}
}

var grid1000 struct {
	once sync.Once
	rs   *ResultSet
	err  error
}

// steadyState disables the collector for the rest of the test: a GC
// between two encodes empties the scratch-buffer pool, and the budgets
// measure the warm-pool steady state, not pool refills.
func steadyState(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// grid1000Result executes grid1000Query once per test binary.
func grid1000Result(tb testing.TB) *ResultSet {
	grid1000.once.Do(func() {
		grid1000.rs, grid1000.err = Run(context.Background(), grid1000Query())
	})
	if grid1000.err != nil {
		tb.Fatal(grid1000.err)
	}
	if n := len(grid1000.rs.Results); n != 1000 {
		tb.Fatalf("grid has %d points, want 1000", n)
	}
	return grid1000.rs
}

// TestResultSetEncodeAllocBudget is the allocation-regression guard for the
// result writer's whole-body path: once the scratch-buffer pool is warm,
// encoding the 1,000-point grid body costs the returned slice and nothing
// else (encoding/json spent ~50k allocations on the same body, one boxed
// float per field).
func TestResultSetEncodeAllocBudget(t *testing.T) {
	rs := grid1000Result(t)
	steadyState(t)
	if _, err := rs.Encode(); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rs.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > resultSetEncodeAllocBudget {
		t.Fatalf("ResultSet.Encode of the 1000-point grid allocated %v per op, budget %d", allocs, resultSetEncodeAllocBudget)
	}
	t.Logf("ResultSet.Encode (1000-point grid): %v allocs/op", allocs)
}

// TestSplicedEncodeAllocBudget guards the body of a store-backed execution:
// every result carries the line its task stored, so Encode splices the
// lines into one allocation of exactly the body's size, never grown by
// appends and never copied out of a scratch buffer.
func TestSplicedEncodeAllocBudget(t *testing.T) {
	grid1000Result(t) // warm the contention cache the grid points share
	plan, err := Compile(grid1000Query())
	if err != nil {
		t.Fatal(err)
	}
	plan.Store = newKeepStore()
	rs, err := plan.Execute(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	steadyState(t)
	body, err := rs.Encode() // warm the pool
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != cap(body) {
		t.Fatalf("spliced body of %d bytes has capacity %d; want it sized exactly", len(body), cap(body))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rs.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > splicedEncodeAllocBudget {
		t.Fatalf("spliced Encode of the 1000-point grid allocated %v per op, budget %d", allocs, splicedEncodeAllocBudget)
	}
	t.Logf("spliced Encode (1000-point grid): %v allocs/op", allocs)
}

// TestEncodeTaskResultAllocBudget guards the per-task path: EncodeTaskResult
// costs at most its returned slice per task, and appending into a reused
// buffer — what the stream and task lines and the store feed do — costs
// nothing.
func TestEncodeTaskResultAllocBudget(t *testing.T) {
	rs := grid1000Result(t)
	steadyState(t)
	n := float64(len(rs.Results))
	perTask := testing.AllocsPerRun(5, func() {
		for i := range rs.Results {
			if _, err := EncodeTaskResult(rs.Results[i]); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	if perTask > taskEncodeAllocBudget {
		t.Fatalf("EncodeTaskResult allocated %v per task, budget %d", perTask, taskEncodeAllocBudget)
	}
	buf := make([]byte, 0, 4096)
	appended := testing.AllocsPerRun(5, func() {
		for i := range rs.Results {
			var err error
			if buf, err = rs.Results[i].AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if appended != 0 {
		t.Fatalf("TaskResult.AppendJSON into a reused buffer allocated %v per 1000 tasks, want 0", appended)
	}
	t.Logf("EncodeTaskResult: %v allocs/task; AppendJSON: %v", perTask, appended)
}

// TestCompileGridAllocBudget guards compile-once plan construction: the
// 1,000-point grid compiles into one points slice and one label string
// (twelve allocations in all), not a closure and two formatted strings per
// point (~3.8k allocations per build).
func TestCompileGridAllocBudget(t *testing.T) {
	q := grid1000Query()
	if _, err := Compile(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Compile(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > compileGridAllocBudget {
		t.Fatalf("Compile of the 1000-point grid allocated %v per op, budget %d", allocs, compileGridAllocBudget)
	}
	t.Logf("Compile (1000-point grid): %v allocs/op", allocs)
}

// reuseStore is an in-memory TaskStore that never hits and keeps each
// task's latest bytes in a buffer it reuses across executions, so once warm
// its writes allocate nothing and an execution's count is the plan's own.
// Each index is written by one task at a time, so it needs no lock.
type reuseStore struct{ bufs [][]byte }

func (s *reuseStore) GetTask(int) ([]byte, bool) { return nil, false }
func (s *reuseStore) PutTask(i int, b []byte)    { s.bufs[i] = append(s.bufs[i][:0], b...) }

// TestExecuteGridAllocBudget guards the per-task compute path: executing the
// 1,000-point grid — evaluate, stamp, encode into the store and order every
// task — costs a constant number of allocations per plan (the results, the
// execution's MetricsWire slab, the emission slots, the engine's workers),
// not one or more per point (two per point when every task boxed its
// core.Metrics and escaped its own MetricsWire).
func TestExecuteGridAllocBudget(t *testing.T) {
	grid1000Result(t) // warm the contention cache the grid points share
	plan, err := Compile(grid1000Query())
	if err != nil {
		t.Fatal(err)
	}
	plan.Store = &reuseStore{bufs: make([][]byte, plan.NumTasks())}
	steadyState(t)
	execute := func() {
		if _, err := plan.Execute(context.Background(), 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	execute() // warm the store's buffers and the encode pool
	allocs := testing.AllocsPerRun(10, execute)
	if allocs > executeGridAllocBudget {
		t.Fatalf("Execute of the 1000-point grid allocated %v per op, budget %d", allocs, executeGridAllocBudget)
	}
	t.Logf("Execute (1000-point grid, store attached): %v allocs/op", allocs)
}

// TestExecuteReplicasAllocBudget guards the replica plan layer the
// sim-stream workload runs on: executing a cold 16-replica plan with a
// store attached — run, convert to the wire payload, stamp, encode into the
// store, order and fold every replica into the summary — costs a few
// allocations per replica: no default radio, BER model or deployment built
// per run, no histogram copied out of the arena only for the wire to drop
// it, and no boxed in-process copy of each replica's result beside its wire
// payload.
func TestExecuteReplicasAllocBudget(t *testing.T) {
	nodes, superframes := 10, 2
	plan, err := Compile(Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: &nodes, Superframes: &superframes}, Replicas: 16})
	if err != nil {
		t.Fatal(err)
	}
	plan.Store = &reuseStore{bufs: make([][]byte, plan.NumTasks())}
	steadyState(t)
	execute := func() {
		if _, err := plan.Execute(context.Background(), 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	execute() // warm the store's buffers, the encode pool and the runners
	allocs := testing.AllocsPerRun(10, execute)
	if allocs > executeReplicasAllocBudget {
		t.Fatalf("Execute of the 16-replica plan allocated %v per op, budget %d", allocs, executeReplicasAllocBudget)
	}
	t.Logf("Execute (16 replicas, store attached): %v allocs/op", allocs)
}

// TestExecuteLifetimeAllocBudget is the lifetime twin of
// TestExecuteReplicasAllocBudget, the plan layer the lifetime workload runs
// on: executing a cold 8-replica lifetime plan with a store attached costs
// each run's curve plus a few allocations per replica — no default radio,
// BER model or deployment built per run, no per-node battery state or epoch
// handle outside the pooled arena, and no replica curve rebuilt for the
// summary.
func TestExecuteLifetimeAllocBudget(t *testing.T) {
	q := lifetimeTestQuery()
	q.Replicas = 8
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Store = &reuseStore{bufs: make([][]byte, plan.NumTasks())}
	steadyState(t)
	execute := func() {
		if _, err := plan.Execute(context.Background(), 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	execute() // warm the store's buffers, the encode pool and the runners
	allocs := testing.AllocsPerRun(10, execute)
	if allocs > executeLifetimeAllocBudget {
		t.Fatalf("Execute of the 8-replica lifetime plan allocated %v per op, budget %d", allocs, executeLifetimeAllocBudget)
	}
	t.Logf("Execute (8 lifetime replicas, store attached): %v allocs/op", allocs)
}
