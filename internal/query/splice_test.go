package query

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dense802154/internal/contention"
	"dense802154/internal/contention/contentiontest"
)

// keepStore is an in-memory TaskKeeper: it hands back the copy it keeps,
// as store.Store's views do, so computed results carry their stored lines.
type keepStore struct {
	mu sync.Mutex
	m  map[int][]byte
}

func newKeepStore() *keepStore { return &keepStore{m: map[int][]byte{}} }

func (s *keepStore) GetTask(index int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[index]
	return b, ok
}

func (s *keepStore) PutTask(index int, encoded []byte) { s.KeepTask(index, encoded) }

func (s *keepStore) KeepTask(index int, encoded []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := append([]byte(nil), encoded...)
	s.m[index] = b
	return b
}

// spliceQueries are small queries of every kind.
func spliceQueries() []Query {
	seed := int64(5)
	return append(realQueries(),
		Query{Kind: KindEvaluate, Params: quickParams()},
		Query{Kind: KindBatch, Batch: []ParamsWire{*quickParams(), {PayloadBytes: intp(20)}, *quickParams()}},
		Query{Kind: KindSimulate, Sim: &SimConfigWire{Nodes: intp(10), Superframes: intp(2), Seed: &seed}},
		Query{Kind: KindScenario, Scenario: "sparse-idle"},
		Query{Kind: KindExperiment, Experiment: "fig3", Quick: true},
	)
}

// plainLine is tr's line formatted field by field, ignoring any line the
// result carries.
func plainLine(t *testing.T, tr TaskResult) []byte {
	t.Helper()
	tr.enc = nil
	b, err := tr.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSplicedBytesMatchAppendJSON: for every kind, run cold and then
// partly stored against a store that keeps its lines, the body Encode
// splices and every stream line equal what formatting each result field by
// field writes, and the body equals a storeless run's. For the kinds whose
// results the store holds, every result must actually carry its line, so
// the comparison covers the splice.
func TestSplicedBytesMatchAppendJSON(t *testing.T) {
	for _, q := range spliceQueries() {
		var want []byte
		if !q.Trace {
			want, _ = encodeRun(t, q, nil)
		}
		st := newKeepStore()
		for _, state := range []string{"cold", "partly stored"} {
			if state == "partly stored" {
				for i := range st.m {
					if i%2 == 1 {
						delete(st.m, i)
					}
				}
			}
			plan, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			plan.Store = st
			var lines []byte
			rs, err := plan.Execute(context.Background(), 2, func(tr TaskResult) error {
				b, err := tr.AppendJSON(nil)
				if err != nil {
					return err
				}
				b = append(b, '\n')
				if p := plainLine(t, tr); !bytes.Equal(b, p) {
					t.Errorf("%s %s: stream line %d\n got %s\nwant %s", q.Kind, state, tr.Index, b, p)
				}
				lines = append(lines, b...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			body, err := rs.Encode()
			if err != nil {
				t.Fatal(err)
			}
			plain := *rs
			plain.Results = append([]TaskResult(nil), rs.Results...)
			var lineWant []byte
			for i := range plain.Results {
				if q.Kind.WireExact() && plain.Results[i].enc == nil {
					t.Fatalf("%s %s: result %d carries no stored line", q.Kind, state, i)
				}
				lineWant = append(lineWant, plainLine(t, plain.Results[i])...)
				plain.Results[i].enc = nil
			}
			plainBody, err := plain.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if plainBody = append(plainBody, '\n'); !bytes.Equal(body, plainBody) {
				t.Fatalf("%s %s: Encode\n got %s\nwant %s", q.Kind, state, body, plainBody)
			}
			if !bytes.Equal(lines, lineWant) {
				t.Fatalf("%s %s: stream lines deviate from the results", q.Kind, state)
			}
			if want != nil && !bytes.Equal(body, want) {
				t.Fatalf("%s %s: body deviates from a storeless run", q.Kind, state)
			}
		}
	}
}

// TestStoreUndecodableLineIsRecomputed: a stored line that does not decode
// is a miss even though the fill skipped its configuration: the task is
// recomputed to the same bytes and stored again.
func TestStoreUndecodableLineIsRecomputed(t *testing.T) {
	q := storeGridQuery()
	want, _ := encodeRun(t, q, nil)
	st := newMapStore()
	encodeRun(t, q, st)
	for i := range st.m {
		st.m[i] = []byte("{not a task result\n")
	}
	st.hits, st.puts = 0, 0
	got, _ := encodeRun(t, q, st)
	if !bytes.Equal(got, want) {
		t.Fatal("undecodable stored lines changed result bytes")
	}
	if st.puts != len(st.m) {
		t.Fatalf("%d of %d undecodable lines stored again", st.puts, len(st.m))
	}
}

// lookups runs fn and reports the contention-cache lookups it made: how
// many configurations it simulated (misses) and how many it found cached
// or in flight (hits). Every Monte-Carlo lookup of a plan goes through the
// cache, so the sum is the plan's lookup count.
func lookups(t *testing.T, fn func() error) (misses, hits uint64) {
	t.Helper()
	before := contention.CacheStats()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	after := contention.CacheStats()
	return after.Misses - before.Misses, after.Hits - before.Hits
}

// TestPlanResolvesEachConfigurationOnce: an execution of the 1,000-point
// grid simulates each distinct (payload, load) of its Monte-Carlo source
// once, ten in all, and looks nothing else up — not once per point and TX
// level — so a second execution finds the ten cached. A lone auto-level
// evaluate looks its configuration up once. The answers are Simulate's, so
// the bytes do not move.
func TestPlanResolvesEachConfigurationOnce(t *testing.T) {
	want := grid1000Result(t)
	wantBody, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(grid1000Query())
	if err != nil {
		t.Fatal(err)
	}
	contention.ResetCache()
	for run, wantMisses := range []uint64{10, 0} {
		var rs *ResultSet
		misses, hits := lookups(t, func() (err error) {
			rs, err = plan.Execute(context.Background(), 2, nil)
			return err
		})
		if misses != wantMisses || misses+hits != 10 {
			t.Fatalf("execution %d: %d simulations and %d cached lookups, want %d and %d",
				run+1, misses, hits, wantMisses, 10-wantMisses)
		}
		body, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatal("resolved grid deviates from the plain run")
		}
	}

	eval, err := Compile(Query{Kind: KindEvaluate, Params: quickParams()})
	if err != nil {
		t.Fatal(err)
	}
	contention.ResetCache()
	for run := 1; run <= 2; run++ {
		misses, hits := lookups(t, func() error {
			_, err := eval.Execute(context.Background(), 2, nil)
			return err
		})
		if misses+hits != 1 {
			t.Fatalf("auto-level evaluate, execution %d: %d contention lookups, want 1", run, misses+hits)
		}
	}
}

// TestPlanFillHonorsGrant: the fill simulates its configurations' shards
// under the execution's worker grant, for the whole plan and for a range:
// a single worker starts no goroutine at all.
func TestPlanFillHonorsGrant(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		plan, err := Compile(grid1000Query())
		if err != nil {
			t.Fatal(err)
		}
		contention.ResetCache()
		var err1, err2 error
		peak := contentiontest.PeakGoroutines(func() {
			_, err1 = plan.Execute(context.Background(), workers, nil)
			contention.ResetCache()
			err2 = plan.ExecuteRange(context.Background(), workers, 100, 350, func(TaskResult, float64) error { return nil })
		})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		// A single worker runs every map on the caller's goroutine. With
		// more, the task loop's map starts right after the fill's, whose
		// workers may not have exited yet, so the two can overlap in the
		// count; a fill that ignored the grant would show beyond that.
		if (workers == 1 && peak != 0) || peak > 2*workers {
			t.Fatalf("workers=%d: up to %d goroutines ran the plan", workers, peak)
		}
	}
}
