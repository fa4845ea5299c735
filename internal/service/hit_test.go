package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dense802154/internal/query"
	"dense802154/internal/store"
	"dense802154/internal/telemetry"
)

// hitGridBody is a 100-point grid (ten losses × five payloads × two BOs),
// the shape of the grids a dashboard re-asks.
const hitGridBody = `{"kind":"grid","params":{"contention":{"superframes":8,"seed":5}},"losses":{"from":45,"to":85,"points":10},"payloads":{"values":[20,40,60,80,100]},"bos":{"values":[6,8]}}`

// serveRecorded runs one request through ServeHTTP with a recorder, the
// way the HTTP server would, minus the connection.
func serveRecorded(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// newStoreBackedServer is a Server with a fresh memory-only result store,
// driven without a listener.
func newStoreBackedServer(t *testing.T) *Server {
	t.Helper()
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(Config{Workers: 1, Store: st})
}

// TestQueryHitAllocBudget holds a whole-query store hit on a stored
// 100-point grid, through ServeHTTP, to its budget: decode, shape check,
// key, lookup and the write, with no plan compiled.
func TestQueryHitAllocBudget(t *testing.T) {
	srv := newStoreBackedServer(t)
	cold := serveRecorded(srv, "/v2/query", hitGridBody)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold query: %d: %s", cold.Code, cold.Body)
	}
	want := cold.Body.Bytes()
	if warm := serveRecorded(srv, "/v2/query", hitGridBody); !bytes.Equal(warm.Body.Bytes(), want) {
		t.Fatal("store hit deviates from the computed response")
	}
	allocs := testing.AllocsPerRun(50, func() {
		serveRecorded(srv, "/v2/query", hitGridBody)
	})
	if allocs > queryHitAllocBudget {
		t.Fatalf("a stored 100-point grid served from the store allocated %v, budget %d", allocs, queryHitAllocBudget)
	}
	t.Logf("store hit (100-point grid) through ServeHTTP: %v allocs", allocs)
}

// kindQueries holds one small query of every kind.
var kindQueries = map[query.Kind]string{
	query.KindEvaluate:      `{"kind":"evaluate","params":{"contention":{"superframes":8,"seed":3}}}`,
	query.KindBatch:         `{"kind":"batch","batch":[{"contention":{"superframes":8,"seed":3}},{"contention":{"superframes":8,"seed":3},"payload_bytes":60},{"contention":{"source":"approx"}}]}`,
	query.KindCaseStudy:     `{"kind":"casestudy","params":{"contention":{"superframes":8,"seed":3}},"config":{"loss_grid_points":5}}`,
	query.KindPathLossSweep: `{"kind":"pathloss-sweep","params":{"contention":{"superframes":8,"seed":3}},"losses":{"from":55,"to":90,"step":5}}`,
	query.KindThresholds:    `{"kind":"thresholds","params":{"contention":{"superframes":8,"seed":3}},"losses":{"values":[55,70,90]}}`,
	query.KindPayloadSweep:  `{"kind":"payload-sweep","params":{"contention":{"superframes":8,"seed":3}},"payloads":{"values":[20,60]}}`,
	query.KindSimulate:      `{"kind":"simulate","sim":{"nodes":10,"superframes":2,"seed":4}}`,
	query.KindReplicas:      `{"kind":"replicas","sim":{"nodes":10,"superframes":2,"seed":4},"replicas":3}`,
	query.KindLifetime:      `{"kind":"lifetime","sim":{"nodes":4,"superframes":1,"seed":4},"lifetime":{"capacity_j":0.05,"epoch_superframes":2,"max_epochs":16},"replicas":2}`,
	query.KindScenario:      `{"kind":"scenario","scenario":"sparse-idle"}`,
	query.KindExperiment:    `{"kind":"experiment","experiment":"fig8","quick":true}`,
	query.KindGrid:          hitGridBody,
}

// queryCounters reads the per-kind and task-volume query counters.
func queryCounters(srv *Server, kind query.Kind) (kinds, tasks uint64) {
	return srv.queryKinds.With(string(kind)).Value(), srv.queryTasks.Value()
}

// storeHits scrapes wsn_store_hits_total from the server's registry.
func storeHits(t *testing.T, srv *Server) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "wsn_store_hits_total" && len(f.Samples) == 1 {
			return f.Samples[0].Value
		}
	}
	t.Fatal("wsn_store_hits_total not in scrape")
	return 0
}

// TestQueryHitCountsLikeCompute: for every kind, a whole-query store hit
// moves wsn_query_total{kind} and wsn_query_tasks_total exactly as the
// request that computed the stored bytes did, though it compiles nothing.
func TestQueryHitCountsLikeCompute(t *testing.T) {
	if len(kindQueries) != len(query.Kinds()) {
		t.Fatalf("kindQueries covers %d kinds, want all %d", len(kindQueries), len(query.Kinds()))
	}
	srv := newStoreBackedServer(t)
	for _, kind := range query.Kinds() {
		body := kindQueries[kind]
		k0, t0 := queryCounters(srv, kind)
		cold := serveRecorded(srv, "/v2/query", body)
		if cold.Code != http.StatusOK {
			t.Fatalf("%s: cold query: %d: %s", kind, cold.Code, cold.Body)
		}
		k1, t1 := queryCounters(srv, kind)
		hits := storeHits(t, srv)
		warm := serveRecorded(srv, "/v2/query", body)
		if warm.Code != http.StatusOK || !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("%s: store hit deviates from the computed response (%d)", kind, warm.Code)
		}
		if storeHits(t, srv) != hits+1 {
			t.Fatalf("%s: the repeat was not a whole-query store hit", kind)
		}
		k2, t2 := queryCounters(srv, kind)
		if k1-k0 != 1 || t1-t0 < 1 {
			t.Fatalf("%s: the computing request counted %d queries and %d tasks", kind, k1-k0, t1-t0)
		}
		if k2-k1 != k1-k0 || t2-t1 != t1-t0 {
			t.Fatalf("%s: the hit counted %d queries and %d tasks, the computing request %d and %d",
				kind, k2-k1, t2-t1, k1-k0, t1-t0)
		}
	}
}

// TestQueryHitValidatesNormalizedFields: the store key drops version and
// timeout_ms, so their variants of a stored query key to its entry; an
// invalid one still answers the structured 400 a query that compiles
// first answered, byte for byte, and a valid one is the stored answer.
func TestQueryHitValidatesNormalizedFields(t *testing.T) {
	srv := newStoreBackedServer(t)
	stored := serveRecorded(srv, "/v2/query", hitGridBody)
	if stored.Code != http.StatusOK {
		t.Fatalf("cold query: %d: %s", stored.Code, stored.Body)
	}
	variant := func(field string) string { return `{` + field + `,` + hitGridBody[1:] }
	for _, tc := range []struct {
		body   string
		status int
		want   string
	}{
		{variant(`"version":3`), http.StatusBadRequest,
			`{"error":{"status":400,"message":"unsupported version 3 (want 2, or omit)","field":"version"}}` + "\n"},
		{variant(`"timeout_ms":-1`), http.StatusBadRequest,
			`{"error":{"status":400,"message":"negative deadline -1","field":"timeout_ms"}}` + "\n"},
		{variant(`"version":2`), http.StatusOK, stored.Body.String()},
		{variant(`"timeout_ms":60000`), http.StatusOK, stored.Body.String()},
	} {
		rec := serveRecorded(srv, "/v2/query", tc.body)
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("%s → %d %s, want %d %s", tc.body, rec.Code, rec.Body, tc.status, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s → Content-Type %q", tc.body, ct)
		}
	}
}
