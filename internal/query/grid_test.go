package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dense802154/internal/core"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
)

func TestGridMatchesEvaluate(t *testing.T) {
	// Every grid point must agree byte for byte with a lone evaluate at the
	// same parameter point — the grid is a product of evaluations, nothing
	// more.
	q := Query{
		Kind:     KindGrid,
		Params:   quickParams(),
		Losses:   &Axis{Values: []Float{60, 80}},
		Payloads: &IntAxis{Values: []int{30, 90}},
		Workers:  2,
	}
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 4 {
		t.Fatalf("grid produced %d tasks, want 4", len(rs.Results))
	}
	base, aerr := quickParams().Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	i := 0
	for _, loss := range []float64{60, 80} {
		for _, payload := range []int{30, 90} {
			p := base
			p.PathLossDB = loss
			p.PayloadBytes = payload
			want, err := core.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			if *rs.Results[i].Metrics != WireMetrics(want) {
				t.Fatalf("grid point %d deviates from core.Evaluate", i)
			}
			if want := fmt.Sprintf("grid[%d]:loss=%g,payload=%d,bo=6", i, loss, payload); rs.Results[i].Label != want {
				t.Fatalf("label %q, want %q", rs.Results[i].Label, want)
			}
			i++
		}
	}
}

func TestGridNodesAxisSetsChannelLoad(t *testing.T) {
	// The nodes axis must drive Load through the same §5 rule the case
	// study uses: ChannelLoad(n, PaperPacketDuration(payload)).
	q := Query{
		Kind:    KindGrid,
		Params:  quickParams(),
		Nodes:   &IntAxis{Values: []int{5, 20}},
		Workers: 1,
	}
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, aerr := quickParams().Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i, n := range []int{5, 20} {
		p := base
		p.Load = p.Superframe.ChannelLoad(n, frame.PaperPacketDuration(p.PayloadBytes))
		want, err := core.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if *rs.Results[i].Metrics != WireMetrics(want) {
			t.Fatalf("nodes=%d deviates from ChannelLoad-derived evaluation", n)
		}
		if want := []string{"grid[0]:loss=75,payload=120,bo=6,n=5", "grid[1]:loss=75,payload=120,bo=6,n=20"}[i]; rs.Results[i].Label != want {
			t.Fatalf("label %q, want %q", rs.Results[i].Label, want)
		}
	}
}

// TestGridLabelMatchesSprintf is the oracle for the append-built grid
// labels: byte-identical to the fmt.Sprintf forms they replaced, over random
// finite floats and integers plus the edges of %g (negative zero, the
// fixed/exponent switch at 1e-4 and 1e21, subnormals, MaxFloat64).
func TestGridLabelMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	losses := []float64{
		0, math.Copysign(0, -1), 1e-5, 1e-4, 9.999e-5, 1.5e-4, 1e20, 1e21,
		123456789e13, 1e-310, 5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 75, 60.25, 1.0 / 3, 50.526315789473685,
	}
	for len(losses) < 5000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		losses = append(losses, f)
	}
	for _, loss := range losses {
		i, payload, bo := rng.IntN(MaxGridTasks), int(rng.Uint64()), int(rng.Int32())-1<<30
		n := 0
		if rng.IntN(2) == 1 {
			n = 1 + rng.IntN(math.MaxInt32)
		}
		want := fmt.Sprintf("grid[%d]:loss=%g,payload=%d,bo=%d", i, loss, payload, bo)
		if n > 0 {
			want += fmt.Sprintf(",n=%d", n)
		}
		if got := string(appendGridLabel(nil, i, loss, payload, bo, n)); got != want {
			t.Fatalf("label %q, want %q", got, want)
		}
	}
}

func TestGridPointValidationError(t *testing.T) {
	// A point that fails core validation is reported under its label, so a
	// client can find it in the grid without recomputing the index.
	_, err := Compile(Query{
		Kind:     KindGrid,
		Params:   quickParams(),
		Losses:   &Axis{Values: []Float{60.25}},
		Payloads: &IntAxis{Values: []int{30, 124}},
		Nodes:    &IntAxis{Values: []int{5}},
	})
	const want = "grid: grid[1]:loss=60.25,payload=124,bo=6,n=5: core: payload 124 outside 1..123"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestGridBOAxis(t *testing.T) {
	q := Query{
		Kind:    KindGrid,
		Params:  quickParams(),
		BOs:     &IntAxis{Values: []int{6, 9}},
		Workers: 1,
	}
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, aerr := quickParams().Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i, bo := range []int{6, 9} {
		sf, err := mac.NewSuperframe(uint8(bo), base.Superframe.SO)
		if err != nil {
			t.Fatal(err)
		}
		p := base
		p.Superframe = sf
		want, err := core.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if *rs.Results[i].Metrics != WireMetrics(want) {
			t.Fatalf("bo=%d deviates from direct evaluation", bo)
		}
	}
}

func TestGridRejections(t *testing.T) {
	for name, q := range map[string]Query{
		"too large": {Kind: KindGrid, Params: quickParams(),
			Losses:   &Axis{Values: manyFloats(200)},
			Payloads: &IntAxis{Values: manyInts(51, 20, 1)}},
		"bad bo":        {Kind: KindGrid, Params: quickParams(), BOs: &IntAxis{Values: []int{15}}},
		"bad nodes":     {Kind: KindGrid, Params: quickParams(), Nodes: &IntAxis{Values: []int{0}}},
		"foreign field": {Kind: KindGrid, Params: quickParams(), Replicas: 3},
	} {
		if _, err := Compile(q); err == nil {
			t.Fatalf("%s: compiled", name)
		}
	}
}

func TestGridShardable(t *testing.T) {
	grid, err := Compile(Query{Kind: KindGrid, Params: quickParams(), Losses: &Axis{Values: []Float{60, 70}}})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Shardable() {
		t.Fatal("multi-point grid must be shardable")
	}
	single, err := Compile(Query{Kind: KindGrid, Params: quickParams()})
	if err != nil {
		t.Fatal(err)
	}
	if single.NumTasks() != 1 || single.Shardable() {
		t.Fatalf("axis-less grid: tasks=%d shardable=%v, want 1/false", single.NumTasks(), single.Shardable())
	}
	scen, err := Compile(Query{Kind: KindEvaluate, Params: quickParams()})
	if err != nil {
		t.Fatal(err)
	}
	if scen.Shardable() {
		t.Fatal("evaluate must not be shardable")
	}
}

func TestNegativeTimeoutRejected(t *testing.T) {
	_, err := Compile(Query{Kind: KindEvaluate, Params: quickParams(), TimeoutMS: -1})
	if err == nil {
		t.Fatal("negative timeout_ms compiled")
	}
}

func TestHugeTimeoutClampedNotOverflowed(t *testing.T) {
	// timeout_ms beyond the Duration range must clamp to "effectively
	// none", not wrap into a garbage (possibly instantly-expired) deadline.
	plan, err := Compile(Query{Kind: KindEvaluate, Params: quickParams(), TimeoutMS: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Timeout <= 0 {
		t.Fatalf("plan.Timeout = %v, overflowed", plan.Timeout)
	}
}

// TestTimeoutBoundsContentionFill: a grid whose every point is a fresh
// Monte-Carlo configuration (the nodes axis gives each its own load) spends
// its whole budget in the contention fill. A 1 ms budget must stop the fill
// between shards — not after simulating all 400 configurations — and leave
// no configuration pinned in the cache: the abandoned ones are simulated
// afresh by the next caller.
func TestTimeoutBoundsContentionFill(t *testing.T) {
	seed := int64(9001)
	n0, n1 := 1, 400
	payloads := []int{60}
	q := Query{
		Kind:      KindGrid,
		Params:    &ParamsWire{Contention: &ContentionWire{Superframes: 1600, Seed: &seed}},
		Payloads:  &IntAxis{Values: payloads},
		Nodes:     &IntAxis{From: &n0, To: &n1},
		TimeoutMS: 1,
	}
	start := time.Now()
	_, err := Run(context.Background(), q)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("a 1 ms grid returned after %v: the fill ran past its deadline", el)
	}
	q.TimeoutMS = 0
	q.Nodes = &IntAxis{Values: []int{3}}
	done := make(chan error, 1)
	go func() { _, err := Run(context.Background(), q); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a configuration the timed-out grid claimed is still pinned in the cache")
	}
}

// TestTimeoutBoundsPayloadSweep: a payload sweep resolves its sizes'
// contention in one fill that stops between Monte-Carlo shards, so a 1 ms
// budget ends it promptly even at the largest characterization the wire
// allows, where asking the source size by size ran every simulation to its
// end first.
func TestTimeoutBoundsPayloadSweep(t *testing.T) {
	seed := int64(9002)
	q := Query{
		Kind:      KindPayloadSweep,
		Params:    &ParamsWire{Contention: &ContentionWire{Superframes: MaxMCSuperframes, Seed: &seed}},
		Payloads:  &IntAxis{Values: []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}},
		TimeoutMS: 1,
	}
	start := time.Now()
	_, err := Run(context.Background(), q)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("a 1 ms payload sweep returned after %v: its contention ran past the deadline", el)
	}
}

func TestTimeoutBoundsExecution(t *testing.T) {
	// A 1 ms budget cannot cover a 40-replica simulation: the plan must
	// fail with DeadlineExceeded instead of running to completion.
	q := Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(40), Superframes: intPtr(50)},
		Replicas: 40, TimeoutMS: 1}
	_, err := Run(context.Background(), q)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExecuteRangeAssembleBitIdentity is the foundation the distribution
// layer stands on: computing a plan in arbitrary index slices (the worker
// path) and merging the slices with Assemble must reproduce Execute's
// ResultSet byte for byte — including the replicas summary, which Assemble
// recomputes from wire payloads alone.
func TestExecuteRangeAssembleBitIdentity(t *testing.T) {
	queries := map[string]Query{
		"grid": {Kind: KindGrid, Params: quickParams(),
			Losses: &Axis{Values: []Float{55, 70, 85}}, Payloads: &IntAxis{Values: []int{20, 100}}},
		"replicas": {Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}, Replicas: 5},
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			plan, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plan.Execute(context.Background(), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}

			// Compute the plan in three uneven slices, as three independent
			// workers would, round-tripping every result through its JSON
			// wire form (what the coordinator actually receives).
			n := plan.NumTasks()
			cuts := []int{0, 1, n - 1, n}
			results := make([]TaskResult, n)
			for c := 0; c+1 < len(cuts); c++ {
				from, to := cuts[c], cuts[c+1]
				if from >= to {
					continue
				}
				err := plan.ExecuteRange(context.Background(), 2, from, to, func(tr TaskResult, wallMS float64) error {
					if wallMS < 0 {
						t.Errorf("task %d: negative wall time", tr.Index)
					}
					rt, err := roundTrip(tr)
					if err != nil {
						return err
					}
					results[tr.Index] = rt
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := plan.Assemble(results)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := got.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("sharded+assembled bytes deviate from Execute:\n got %s\nwant %s", gotBytes, wantBytes)
			}
		})
	}
}

func TestExecuteRangeRejectsBadRange(t *testing.T) {
	plan, err := Compile(Query{Kind: KindGrid, Params: quickParams(), Losses: &Axis{Values: []Float{55, 70}}})
	if err != nil {
		t.Fatal(err)
	}
	noop := func(TaskResult, float64) error { return nil }
	for _, r := range [][2]int{{-1, 1}, {0, 3}, {1, 1}, {2, 1}} {
		if err := plan.ExecuteRange(context.Background(), 1, r[0], r[1], noop); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

// TestExecuteZeroTaskPlan: a zero-task plan runs through Execute's task
// loop without tripping ExecuteRange's range check: no yield, no results,
// an empty trace. Compile never builds one (an empty batch is a 400), so
// the plan is a literal.
func TestExecuteZeroTaskPlan(t *testing.T) {
	plan := &Plan{Kind: KindBatch, Trace: true, exec: exec{points: []core.Params{}, run: func(context.Context, int, int, payloads) (TaskResult, error) {
		t.Error("run called for a zero-task plan")
		return TaskResult{}, nil
	}}}
	rs, err := plan.Execute(context.Background(), 2, func(TaskResult) error {
		t.Error("yield called for a zero-task plan")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 0 || rs.Trace == nil || rs.Trace.Tasks != 0 || len(rs.Trace.Spans) != 0 {
		t.Fatalf("zero-task plan answered %d results, trace %+v", len(rs.Results), rs.Trace)
	}
}

// TestTaskLoopEmitsInOrder drives the one task loop through Execute and
// ExecuteRange at several grants: every task is emitted exactly once, in
// plan order, never by two goroutines at once, and after a yield error
// nothing more is emitted.
func TestTaskLoopEmitsInOrder(t *testing.T) {
	losses := make([]Float, 40)
	for i := range losses {
		losses[i] = Float(50 + i)
	}
	plan, err := Compile(Query{Kind: KindGrid, Params: quickParams(), Losses: &Axis{Values: losses}})
	if err != nil {
		t.Fatal(err)
	}
	n := plan.NumTasks()
	type run func(workers int, yield func(TaskResult) error) error
	runs := map[string]run{
		"Execute": func(workers int, yield func(TaskResult) error) error {
			_, err := plan.Execute(context.Background(), workers, yield)
			return err
		},
		"ExecuteRange": func(workers int, yield func(TaskResult) error) error {
			return plan.ExecuteRange(context.Background(), workers, 0, n, func(tr TaskResult, _ float64) error {
				return yield(tr)
			})
		},
	}
	boom := errors.New("boom")
	for name, r := range runs {
		for _, workers := range []int{1, 3, 8} {
			for _, stopAt := range []int{-1, 0, 17} {
				var inYield atomic.Bool
				var got []int
				err := r(workers, func(tr TaskResult) error {
					if !inYield.CompareAndSwap(false, true) {
						t.Errorf("%s/%d: overlapping yields", name, workers)
					}
					defer inYield.Store(false)
					got = append(got, tr.Index)
					if tr.Index == stopAt {
						return boom
					}
					return nil
				})
				want := n
				if stopAt >= 0 {
					want = stopAt + 1
					if !errors.Is(err, boom) {
						t.Errorf("%s/%d/stop %d: err = %v, want the yield error", name, workers, stopAt, err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if len(got) != want {
					t.Errorf("%s/%d/stop %d: %d yields, want %d", name, workers, stopAt, len(got), want)
				}
				for i, idx := range got {
					if idx != i {
						t.Fatalf("%s/%d/stop %d: yield order %v", name, workers, stopAt, got)
					}
				}
			}
		}
	}
}

func TestAssembleRejectsWrongShape(t *testing.T) {
	plan, err := Compile(Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(8), Superframes: intPtr(3)}, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Assemble(make([]TaskResult, 2)); err == nil {
		t.Fatal("short result list assembled")
	}
	// Right length but a missing sim payload must fail the replica merge.
	if _, err := plan.Assemble(make([]TaskResult, 3)); err == nil {
		t.Fatal("payload-less results assembled")
	}
}

// roundTrip pushes a TaskResult through its JSON encoding, as the NDJSON
// worker protocol does.
func roundTrip(tr TaskResult) (TaskResult, error) {
	b, err := json.Marshal(tr)
	if err != nil {
		return TaskResult{}, err
	}
	var out TaskResult
	if err := json.Unmarshal(b, &out); err != nil {
		return TaskResult{}, err
	}
	return out, nil
}

func manyFloats(n int) []Float {
	out := make([]Float, n)
	for i := range out {
		out[i] = Float(40 + i)
	}
	return out
}

func manyInts(n, base, step int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i*step
	}
	return out
}

// TestPlanReuseAcrossExecutions pins the compile-once contract: one
// compiled plan serves repeated Execute calls under different grants and
// concurrent ExecuteRange shards alongside a concurrent Execute (as the
// coordinator's local flights share one plan), and every path yields the
// bytes of a fresh Run.
func TestPlanReuseAcrossExecutions(t *testing.T) {
	queries := map[string]Query{
		"grid": {Kind: KindGrid, Params: quickParams(),
			Losses:   &Axis{Values: []Float{55, 62.5, 70, 85}},
			Payloads: &IntAxis{Values: []int{20, 100}},
			Nodes:    &IntAxis{Values: []int{5, 12}}},
		"replicas": {Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}, Replicas: 6},
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			encode := func(rs *ResultSet, err error) []byte {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				b, err := rs.Encode()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			want := encode(Run(ctx, q))

			plan, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 2; workers++ {
				if got := encode(plan.Execute(ctx, workers, nil)); !bytes.Equal(got, want) {
					t.Fatalf("Execute #%d deviates from a fresh Run:\n got %s\nwant %s", workers, got, want)
				}
			}

			n := plan.NumTasks()
			results := make([]TaskResult, n)
			errs := make(chan error, n+1)
			var concurrent []byte
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := plan.Execute(ctx, 2, nil)
				if err == nil {
					concurrent, err = rs.Encode()
				}
				errs <- err
			}()
			for from := 0; from < n; from += 2 {
				wg.Add(1)
				go func(from, to int) {
					defer wg.Done()
					errs <- plan.ExecuteRange(ctx, 2, from, to, func(tr TaskResult, _ float64) error {
						rt, err := roundTrip(tr)
						results[tr.Index] = rt
						return err
					})
				}(from, min(from+2, n))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(concurrent, want) {
				t.Fatalf("concurrent Execute deviates from a fresh Run:\n got %s\nwant %s", concurrent, want)
			}
			if got := encode(plan.Assemble(results)); !bytes.Equal(got, want) {
				t.Fatalf("sharded+assembled bytes deviate from a fresh Run:\n got %s\nwant %s", got, want)
			}
		})
	}
}
