package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dense802154/internal/query"
	"dense802154/internal/store"
	"dense802154/internal/telemetry"
)

const storeGridBody = `{"kind":"grid","params":{"contention":{"superframes":8,"seed":3}},"losses":{"values":[55,70,85]},"payloads":{"values":[20,100]}}`

// newStoreServer is newTestServer with a fresh memory-only result store.
func newStoreServer(t *testing.T, cfg Config) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	return newTestServer(t, cfg), st
}

// metricValue scrapes /metrics and returns the (unlabeled) value of one
// family.
func metricValue(t *testing.T, url, family string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if s.Suffix == "" && len(s.Labels) == 0 {
				return s.Value
			}
		}
	}
	t.Fatalf("family %s not in scrape", family)
	return 0
}

// TestQueryStoreWarmHit is the tentpole's service-level acceptance test: the
// second identical /v2/query is answered from the store byte-identically,
// with wsn_store_hits_total moving and zero engine batches executed — the
// hit path runs no task at all.
func TestQueryStoreWarmHit(t *testing.T) {
	plain := newTestServer(t, Config{Workers: 2})
	_, want := postJSON(t, plain.URL+"/v2/query", storeGridBody)

	ts, _ := newStoreServer(t, Config{Workers: 2})
	status, cold := postJSON(t, ts.URL+"/v2/query", storeGridBody)
	if status != http.StatusOK {
		t.Fatalf("cold query: %d: %s", status, cold)
	}
	if !bytes.Equal(cold, want) {
		t.Fatal("cold store-backed response deviates from storeless server")
	}

	hits0 := metricValue(t, ts.URL, "wsn_store_hits_total")
	batches0 := metricValue(t, ts.URL, "wsn_engine_batches_total")
	status, warm := postJSON(t, ts.URL+"/v2/query", storeGridBody)
	if status != http.StatusOK {
		t.Fatalf("warm query: %d", status)
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("warm response deviates from cold response")
	}
	if d := metricValue(t, ts.URL, "wsn_store_hits_total") - hits0; d < 1 {
		t.Errorf("wsn_store_hits_total moved by %v, want ≥ 1", d)
	}
	if d := metricValue(t, ts.URL, "wsn_engine_batches_total") - batches0; d != 0 {
		t.Errorf("warm query executed %v engine batches, want 0", d)
	}

	// Worker count and timeout are key-neutral: a differently-parallel
	// identical query is the same cache line.
	reworked := strings.Replace(storeGridBody, `{"kind"`, `{"workers":1,"timeout_ms":60000,"kind"`, 1)
	status, alt := postJSON(t, ts.URL+"/v2/query", reworked)
	if status != http.StatusOK {
		t.Fatalf("reworked query: %d", status)
	}
	if !bytes.Equal(alt, want) {
		t.Fatal("key-neutral variant missed the cache or deviated")
	}
}

// TestQueryStreamStoreReplay: a completed stream persists its per-task
// results and the whole-query result. The next identical stream takes every
// task from the store, recomputes nothing, stores nothing (the whole-query
// entry is already there) and is byte-identical to a fresh stream.
func TestQueryStreamStoreReplay(t *testing.T) {
	cases := []struct {
		name, body string
		tasks      int
	}{
		{"grid", storeGridBody, 6},
		{"replicas", `{"kind":"replicas","sim":{"nodes":10,"superframes":3},"replicas":4}`, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain := newTestServer(t, Config{Workers: 2})
			_, want := postJSON(t, plain.URL+"/v2/query/stream", c.body)

			ts, _ := newStoreServer(t, Config{Workers: 2})
			_, cold := postJSON(t, ts.URL+"/v2/query/stream", c.body)
			if !bytes.Equal(cold, want) {
				t.Fatal("cold stream deviates from storeless server")
			}
			hits0 := metricValue(t, ts.URL, "wsn_store_hits_total")
			puts0 := metricValue(t, ts.URL, "wsn_store_puts_total")
			_, warm := postJSON(t, ts.URL+"/v2/query/stream", c.body)
			if !bytes.Equal(warm, want) {
				t.Fatal("repeated stream deviates from fresh stream")
			}
			if d := metricValue(t, ts.URL, "wsn_store_hits_total") - hits0; d < float64(c.tasks) {
				t.Errorf("repeated stream moved wsn_store_hits_total by %v, want ≥ %d (one per task)", d, c.tasks)
			}
			if d := metricValue(t, ts.URL, "wsn_store_puts_total") - puts0; d != 0 {
				t.Errorf("repeated stream moved wsn_store_puts_total by %v, want 0", d)
			}

			// The non-streaming route shares the cache line: same query, same
			// stored ResultSet.
			status, body := postJSON(t, ts.URL+"/v2/query", c.body)
			if status != http.StatusOK {
				t.Fatalf("query after stream: %d", status)
			}
			_, plainBody := postJSON(t, plain.URL+"/v2/query", c.body)
			if !bytes.Equal(body, plainBody) {
				t.Fatal("non-streaming response after stream deviates")
			}
		})
	}
}

// TestQueryStreamResume: a client that disconnects mid-stream and retries
// gets the full byte-identical stream, resumed from the per-task results the
// interrupted attempt persisted.
func TestQueryStreamResume(t *testing.T) {
	plain := newTestServer(t, Config{Workers: 2})
	_, want := postJSON(t, plain.URL+"/v2/query/stream", storeGridBody)

	ts, st := newStoreServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v2/query/stream", strings.NewReader(storeGridBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line, then walk away mid-stream.
	buf := make([]byte, 1)
	for {
		if _, err := resp.Body.Read(buf); err != nil || buf[0] == '\n' {
			break
		}
	}
	cancel()
	resp.Body.Close()

	if st.Stats().Entries == 0 {
		t.Fatal("interrupted stream persisted nothing")
	}
	hits0 := store.HitsTotal.Value()
	_, retry := postJSON(t, ts.URL+"/v2/query/stream", storeGridBody)
	if !bytes.Equal(retry, want) {
		t.Fatal("resumed stream deviates from a fresh one")
	}
	if store.HitsTotal.Value() == hits0 {
		t.Error("resumed stream reused no persisted task")
	}
}

// TestTraceBypassesResultCache: traced responses carry measured wall times,
// so they must never be served from (or into) the whole-query byte cache a
// key-equal untraced query populated.
func TestTraceBypassesResultCache(t *testing.T) {
	ts, _ := newStoreServer(t, Config{Workers: 2})
	status, body := postJSON(t, ts.URL+"/v2/query", storeGridBody)
	if status != http.StatusOK {
		t.Fatalf("untraced query: %d", status)
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatal("untraced response carries a trace")
	}
	traced := strings.Replace(storeGridBody, `{"kind"`, `{"trace":true,"kind"`, 1)
	for i := 0; i < 2; i++ {
		status, body = postJSON(t, ts.URL+"/v2/query", traced)
		if status != http.StatusOK {
			t.Fatalf("traced query %d: %d", i, status)
		}
		if !bytes.Contains(body, []byte(`"trace"`)) {
			t.Fatalf("traced query %d served a trace-less cached body", i)
		}
	}
	// And the untraced line is still served untraced afterwards.
	status, body = postJSON(t, ts.URL+"/v2/query", storeGridBody)
	if status != http.StatusOK || bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("untraced query after traced ones: %d, trace=%v", status, bytes.Contains(body, []byte(`"trace"`)))
	}
}

// TestTracedQueryStoresTasksNotResult: a traced query on either route still
// attaches the per-task store view under the query's key — every task is
// persisted — but writes no whole-query entry, whose bytes would carry the
// trace.
func TestTracedQueryStoresTasksNotResult(t *testing.T) {
	traced := strings.Replace(storeGridBody, `{"kind"`, `{"trace":true,"kind"`, 1)
	var q query.Query
	if err := json.Unmarshal([]byte(traced), &q); err != nil {
		t.Fatal(err)
	}
	key, ok := store.KeyFor(q)
	if !ok {
		t.Fatal("grid query has no store key")
	}
	const tasks = 6
	for _, route := range []string{"/v2/query", "/v2/query/stream"} {
		ts, st := newStoreServer(t, Config{Workers: 2})
		if status, _ := postJSON(t, ts.URL+route, traced); status != http.StatusOK {
			t.Fatalf("%s: traced query: %d", route, status)
		}
		view := st.TasksAt(key, 0, tasks)
		for i := 0; i < tasks; i++ {
			if _, ok := view.GetTask(i); !ok {
				t.Errorf("%s: task %d not stored under the query's key", route, i)
			}
		}
		if _, ok := st.GetResult(key); ok {
			t.Errorf("%s: traced query wrote the whole-query entry", route)
		}
		if n := st.Stats().Entries; n != tasks {
			t.Errorf("%s: %d store entries, want the %d tasks", route, n, tasks)
		}
	}
}

// flakyWriter fails exactly one Write call (the failAt-th, 1-based) and
// records everything else — the shape of a broken pipe surfacing through a
// buffering proxy: the failure is visible to the handler while later writes
// still "succeed" locally.
type flakyWriter struct {
	header http.Header
	buf    bytes.Buffer
	calls  int
	failAt int
}

func (w *flakyWriter) Header() http.Header { return w.header }
func (w *flakyWriter) WriteHeader(int)     {}
func (w *flakyWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		return 0, errors.New("write tcp: broken pipe")
	}
	return w.buf.Write(p)
}

// TestTasksStreamWriteFailureNotATaskError is the satellite-1 regression
// test: when writing a task line back to the coordinator fails before the
// request context is canceled, the worker must end the stream silently —
// a truncated stream re-dispatches — and never emit a TaskLine error, which
// the coordinator would treat as a deterministic compute failure and abort
// the whole query on.
func TestTasksStreamWriteFailureNotATaskError(t *testing.T) {
	app := NewServer(Config{Workers: 2})
	body := `{"query":` + storeGridBody + `,"from":0,"to":6,"workers":1}`
	w := &flakyWriter{header: http.Header{}, failAt: 2}
	r := httptest.NewRequest(http.MethodPost, "/v2/tasks", strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	app.ServeHTTP(w, r)

	out := w.buf.String()
	if !strings.Contains(out, `"result"`) {
		t.Fatalf("no task line before the injected failure:\n%s", out)
	}
	if strings.Contains(out, `"error"`) {
		t.Fatalf("stream-write failure reported as a task error line:\n%s", out)
	}
	if strings.Contains(out, `"done"`) {
		t.Fatalf("failed stream still claimed completion:\n%s", out)
	}
}

// TestTasksStreamShape pins the healthy shape next to the regression above:
// with no injected fault the same request streams every task line and the
// terminal done line — proving the sentinel branch fires only on actual
// write failures.
func TestTasksStreamShape(t *testing.T) {
	app := NewServer(Config{Workers: 2})
	body := `{"query":` + storeGridBody + `,"from":0,"to":6,"workers":1}`
	w := &flakyWriter{header: http.Header{}, failAt: 0} // never fails
	r := httptest.NewRequest(http.MethodPost, "/v2/tasks", strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	app.ServeHTTP(w, r)
	out := w.buf.String()
	if strings.Count(out, `"result"`) != 6 || !strings.Contains(out, `"done":true`) {
		t.Fatalf("healthy stream malformed:\n%s", out)
	}
}

// TestColdGridSizeAllocBudget serves never-seen grids (a fresh contention
// seed per query) through ServeHTTP with a store: 10 tasks over one
// contention configuration and 5,000 tasks over ten. The store keeps a
// query's lines in one table, so what a cold query allocates does not grow
// with its task count: the gap between the two is held to
// coldGridSizeAllocSlack.
func TestColdGridSizeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 5,000-task grids")
	}
	const (
		small = `"losses":{"from":45,"to":85,"points":10},"payloads":{"values":[60]}}`
		large = `"losses":{"from":45,"to":85,"points":500},"payloads":{"values":[20,30,40,50,60,70,80,90,100,110]}}`
	)
	srv := newStoreBackedServer(t)
	seed := 7_000_000
	perQuery := func(axes string) float64 {
		return testing.AllocsPerRun(30, func() {
			seed++
			body := `{"kind":"grid","params":{"contention":{"superframes":8,"seed":` + strconv.Itoa(seed) + `}},` + axes
			if rec := serveRecorded(srv, "/v2/query", body); rec.Code != http.StatusOK {
				t.Fatalf("cold grid: %d: %s", rec.Code, rec.Body)
			}
		})
	}
	a, b := perQuery(small), perQuery(large)
	if b-a > coldGridSizeAllocSlack {
		t.Fatalf("a cold 5,000-task grid allocated %v per query, a 10-task one %v: the gap exceeds %d", b, a, coldGridSizeAllocSlack)
	}
	t.Logf("cold grid allocs/query: 10 tasks %v, 5,000 tasks %v", a, b)
}

// TestStreamReplicasAllocBudget holds the sim-stream path to its budget: a
// never-seen 16-replica, 100-node, 8-superframe /v2/query/stream (a fresh
// seed per query) through ServeHTTP with a store, as the end-to-end
// workload sends it. The replica payloads live in one slab per execution
// and the summary folds them without scratch slices, so one allocation per
// replica anywhere on the path fails the budget.
func TestStreamReplicasAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 simulation replicas per query")
	}
	srv := newStoreBackedServerWith(t, Config{Workers: 2})
	seed := 8_000_000
	run := func() {
		seed++
		body := `{"kind":"replicas","sim":{"nodes":100,"superframes":8,"seed":` + strconv.Itoa(seed) + `},"replicas":16}`
		if rec := serveRecorded(srv, "/v2/query/stream", body); rec.Code != http.StatusOK {
			t.Fatalf("cold replicas stream: %d: %s", rec.Code, rec.Body)
		}
	}
	run() // warm the runners, the encode pool and the line writer
	allocs := allocsWithoutGC(5, run)
	if allocs > streamReplicasAllocBudget {
		t.Fatalf("a cold 16-replica stream allocated %v per query, budget %d", allocs, streamReplicasAllocBudget)
	}
	t.Logf("cold 16-replica stream: %v allocs/query", allocs)
}
