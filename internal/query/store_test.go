package query

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// mapStore is an in-memory TaskStore recording traffic, for pinning when the
// plan consults and feeds the store. Plans call it from every worker, so it
// locks like any TaskStore must.
type mapStore struct {
	mu   sync.Mutex
	m    map[int][]byte
	hits int
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[int][]byte{}} }

func (s *mapStore) GetTask(index int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[index]
	if ok {
		s.hits++
	}
	return b, ok
}

func (s *mapStore) PutTask(index int, encoded []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[index] = append([]byte(nil), encoded...)
}

func storeGridQuery() Query {
	return Query{
		Kind:     KindGrid,
		Params:   quickParams(),
		Losses:   &Axis{Values: []Float{55, 70, 85}},
		Payloads: &IntAxis{Values: []int{20, 100}},
	}
}

func encodeRun(t *testing.T, q Query, st TaskStore) ([]byte, *ResultSet) {
	t.Helper()
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Store = st
	rs, err := plan.Execute(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b, rs
}

// TestExecuteStoreByteIdentity is the tentpole invariant at the plan layer:
// a cold store-backed run, a fully warm run and a storeless run all encode
// to identical bytes, and the warm run computes nothing (every task is a
// hit, zero puts).
func TestExecuteStoreByteIdentity(t *testing.T) {
	q := storeGridQuery()
	want, _ := encodeRun(t, q, nil)

	st := newMapStore()
	cold, _ := encodeRun(t, q, st)
	if !bytes.Equal(cold, want) {
		t.Fatal("cold store-backed run deviates from storeless run")
	}
	n := len(st.m)
	if n == 0 || st.puts != n {
		t.Fatalf("cold run stored %d entries with %d puts", n, st.puts)
	}

	st.hits, st.puts = 0, 0
	warm, _ := encodeRun(t, q, st)
	if !bytes.Equal(warm, want) {
		t.Fatal("warm run deviates from storeless run")
	}
	if st.hits != n || st.puts != 0 {
		t.Fatalf("warm run: %d hits %d puts, want %d hits 0 puts", st.hits, st.puts, n)
	}
}

// TestExecuteStorePartialWarm seeds a strict subset of tasks and checks the
// run recomputes exactly the holes, still byte-identically.
func TestExecuteStorePartialWarm(t *testing.T) {
	q := storeGridQuery()
	want, _ := encodeRun(t, q, nil)

	full := newMapStore()
	encodeRun(t, q, full)
	n := len(full.m)

	partial := newMapStore()
	for i := 0; i < n; i += 2 {
		partial.m[i] = full.m[i]
	}
	seeded := len(partial.m)
	got, _ := encodeRun(t, q, partial)
	if !bytes.Equal(got, want) {
		t.Fatal("partially warm run deviates from storeless run")
	}
	if partial.puts != n-seeded {
		t.Fatalf("partial run put %d entries, want %d (the holes)", partial.puts, n-seeded)
	}
}

// TestExecuteRangeStore pins the worker-side path: ExecuteRange consults and
// feeds the store exactly like Execute, and warm ranges recompute nothing.
func TestExecuteRangeStore(t *testing.T) {
	q := storeGridQuery()
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	st := newMapStore()
	plan.Store = st
	n := plan.NumTasks()
	collect := func() []TaskResult {
		var out []TaskResult
		if err := plan.ExecuteRange(context.Background(), 2, 0, n, func(tr TaskResult, _ float64) error {
			out = append(out, tr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := collect()
	if st.puts != n {
		t.Fatalf("cold range put %d of %d", st.puts, n)
	}
	st.hits, st.puts = 0, 0
	warm := collect()
	if st.hits != n || st.puts != 0 {
		t.Fatalf("warm range: %d hits %d puts, want %d hits 0 puts", st.hits, st.puts, n)
	}
	for i := range cold {
		cb, _ := EncodeTaskResult(cold[i])
		wb, _ := EncodeTaskResult(warm[i])
		if !bytes.Equal(cb, wb) {
			t.Fatalf("task %d: warm range bytes deviate", i)
		}
	}
}

// TestReplicasStoreWarmAssemble runs the replicas kind warm from the store:
// every task is a store hit, decoded from stored bytes, and the summary
// Plan.Assemble folds from those payloads is byte-identical to a cold run's.
func TestReplicasStoreWarmAssemble(t *testing.T) {
	q := Query{
		Kind:     KindReplicas,
		Sim:      &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)},
		Replicas: 6,
	}
	want, wantRS := encodeRun(t, q, nil)
	if wantRS.Summary == nil {
		t.Fatal("replicas run produced no summary")
	}
	st := newMapStore()
	encodeRun(t, q, st)
	st.hits, st.puts = 0, 0
	warm, warmRS := encodeRun(t, q, st)
	if st.hits != 6 || st.puts != 0 {
		t.Fatalf("warm replicas run: %d hits %d puts", st.hits, st.puts)
	}
	if warmRS.Summary == nil {
		t.Fatal("warm replicas run lost the summary")
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("warm replicas bytes deviate (wire-side assembly broken?)")
	}
}

// TestWireExactGatesStore: kinds whose task payloads are not proven to
// round-trip exactly (scenario, experiment) must never read or write the
// per-task store.
func TestWireExactGatesStore(t *testing.T) {
	for _, k := range Kinds() {
		want := k != KindScenario && k != KindExperiment
		if got := k.WireExact(); got != want {
			t.Errorf("%s.WireExact() = %v, want %v", k, got, want)
		}
	}
	q := Query{Kind: KindScenario, Scenario: "dense-cell"}
	plan, err := Compile(q)
	if err != nil {
		t.Skip("scenario catalog unavailable:", err)
	}
	st := newMapStore()
	plan.Store = st
	if _, err := plan.Execute(context.Background(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if st.hits != 0 || st.puts != 0 {
		t.Fatalf("scenario run touched the store: %d hits %d puts", st.hits, st.puts)
	}
}

// TestTaskResultCodecStability: EncodeTaskResult is a fixed point through
// DecodeTaskResult — the identity the store's byte-identity contract
// reduces to.
func TestTaskResultCodecStability(t *testing.T) {
	q := storeGridQuery()
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := plan.Execute(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range rs.Results {
		b1, err := EncodeTaskResult(tr)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		dec, err := DecodeTaskResult(b1)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		b2, err := EncodeTaskResult(dec)
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("task %d: encode∘decode not a fixed point\n b1 %s\n b2 %s", i, b1, b2)
		}
	}
	if _, err := DecodeTaskResult([]byte("{broken")); err == nil {
		t.Fatal("broken bytes decoded")
	}
}

// TestStoreDecodeFailureIsMiss: a corrupt store entry degrades to a miss and
// a recompute, never a wrong result.
func TestStoreDecodeFailureIsMiss(t *testing.T) {
	q := storeGridQuery()
	want, _ := encodeRun(t, q, nil)
	st := newMapStore()
	encodeRun(t, q, st)
	st.m[0] = []byte("{definitely not a task result")
	st.m[3] = []byte{}
	st.hits, st.puts = 0, 0
	got, _ := encodeRun(t, q, st)
	if !bytes.Equal(got, want) {
		t.Fatal("corrupt entries changed result bytes")
	}
	if st.puts != 2 {
		t.Fatalf("corrupt entries re-stored %d times, want 2", st.puts)
	}
}
