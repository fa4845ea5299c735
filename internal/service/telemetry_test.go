package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"dense802154/internal/query"
	"dense802154/internal/telemetry"
)

// syncWriter serializes writes from the server's logging goroutines with
// the test's reads.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// requiredFamilies is the metric coverage contract of GET /metrics: every
// layer — HTTP service, worker pool, engine, contention cache, simulator —
// must be represented in a scrape. The CI bench-smoke lint asserts the same
// list against a live server.
var requiredFamilies = []string{
	"wsn_http_requests_total",
	"wsn_http_request_duration_seconds",
	"wsn_http_requests_in_flight",
	"wsn_query_total",
	"wsn_query_tasks_total",
	"wsn_worker_pool_capacity",
	"wsn_worker_pool_in_use",
	"wsn_worker_acquires_total",
	"wsn_worker_wait_seconds",
	"wsn_uptime_seconds",
	"wsn_build_info",
	"wsn_engine_batches_total",
	"wsn_engine_task_seconds",
	"wsn_engine_task_wait_seconds",
	"wsn_contention_cache_hits_total",
	"wsn_contention_cache_misses_total",
	"wsn_contention_cache_evictions_total",
	"wsn_contention_cache_entries",
	"wsn_contention_cache_limit",
	"wsn_netsim_runs_total",
	"wsn_netsim_events_total",
	"wsn_netsim_cca_attempts_total",
	"wsn_netsim_backoffs_total",
	"wsn_netsim_heap_depth_max",
	"wsn_lifetime_runs_total",
	"wsn_lifetime_epochs_total",
	"wsn_lifetime_deaths_total",
	"wsn_lifetime_simulated_seconds_total",
	"wsn_lifetime_fast_forward_seconds_total",
	"wsn_store_hits_total",
	"wsn_store_misses_total",
	"wsn_store_puts_total",
	"wsn_store_evictions_total",
	"wsn_store_disk_hits_total",
	"wsn_store_disk_errors_total",
	"wsn_store_bytes",
	"wsn_store_entries",
}

// TestMetricsEndpoint drives a small workload through the server, scrapes
// GET /metrics, and checks the exposition parses, covers every layer's
// families and reflects the workload in the counters.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})

	// A v2 simulate query (touches netsim), an evaluate (touches the
	// contention cache via the analytic model) and a 404.
	status, body := postJSON(t, ts.URL+"/v2/query",
		`{"kind":"simulate","sim":{"nodes":10,"superframes":2}}`)
	if status != http.StatusOK {
		t.Fatalf("simulate query: status %d: %s", status, body)
	}
	if status, body = postJSON(t, ts.URL+"/v2/query", `{"kind":"nope"}`); status != http.StatusBadRequest {
		t.Fatalf("invalid kind: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type %q, want %q", ct, telemetry.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, raw)
	}
	have := map[string][]telemetry.Sample{}
	for _, f := range fams {
		have[f.Name] = f.Samples
	}
	for _, name := range requiredFamilies {
		if _, ok := have[name]; !ok {
			t.Errorf("scrape missing family %s", name)
		}
	}

	// Round trip: re-encoding the parsed families reproduces the bytes.
	var re bytes.Buffer
	if err := telemetry.EncodeFamilies(&re, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re.Bytes()) {
		t.Error("re-encoded scrape differs from served bytes")
	}

	// Workload visibility: the simulate query and the netsim run it drove.
	sampleValue := func(name string, labels ...string) (float64, bool) {
	outer:
		for _, s := range have[name] {
			for i := 0; i+1 < len(labels); i += 2 {
				found := false
				for _, l := range s.Labels {
					if l.Name == labels[i] && l.Value == labels[i+1] {
						found = true
					}
				}
				if !found {
					continue outer
				}
			}
			if s.Suffix == "" {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := sampleValue("wsn_query_total", "kind", "simulate"); !ok || v < 1 {
		t.Errorf("wsn_query_total{kind=simulate} = %v %v, want ≥ 1", v, ok)
	}
	if v, ok := sampleValue("wsn_http_requests_total", "route", "POST /v2/query", "code", "200"); !ok || v < 1 {
		t.Errorf("requests_total{POST /v2/query,200} = %v %v, want ≥ 1", v, ok)
	}
	if v, ok := sampleValue("wsn_http_requests_total", "route", "unmatched", "code", "404"); !ok || v < 1 {
		t.Errorf("requests_total{unmatched,404} = %v %v, want ≥ 1", v, ok)
	}
	if v, ok := sampleValue("wsn_http_errors_total", "route", "POST /v2/query", "class", "4xx"); !ok || v < 1 {
		t.Errorf("errors_total{POST /v2/query,4xx} = %v %v, want ≥ 1", v, ok)
	}
	// Process-wide source: the simulate run folded into the shared netsim
	// counters (other tests may have run too, so ≥ 1).
	if v, ok := sampleValue("wsn_netsim_runs_total"); !ok || v < 1 {
		t.Errorf("wsn_netsim_runs_total = %v %v, want ≥ 1", v, ok)
	}
}

// TestStructuredRequestLog checks the slog pipeline: one JSON record per
// request with id, route, status and duration, and the same id echoed in
// the X-Request-Id response header.
func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewJSONHandler(&mu, nil))
	ts := newTestServer(t, Config{Workers: 1, Logger: logger})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("no X-Request-Id header")
	}

	mu.mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.mu.Unlock()
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no log output")
	}
	var rec struct {
		Msg    string `json:"msg"`
		ID     string `json:"id"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Route  string `json:"route"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v: %s", err, lines[len(lines)-1])
	}
	if rec.Msg != "request" || rec.ID != rid || rec.Method != "GET" ||
		rec.Path != "/healthz" || rec.Route != "GET /healthz" || rec.Status != 200 {
		t.Fatalf("log record %+v (want id %s)", rec, rid)
	}
}

// TestHealthzBuildInfoAndStatsSnapshot checks the enriched healthz body and
// the new atomic stats fields.
func TestHealthzBuildInfoAndStatsSnapshot(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Version == "" || hz.GoVersion == "" {
		t.Fatalf("healthz = %+v", hz)
	}

	// One 400 to move the error ledger.
	if status, _ := postJSON(t, ts.URL+"/v2/query", `{"kind":"nope"}`); status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	status, body := postJSON(t, ts.URL+"/v1/evaluate", `{}`)
	if status != http.StatusOK {
		t.Fatalf("evaluate: %d: %s", status, body)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 3 {
		t.Errorf("requests_total = %d, want ≥ 3", st.Requests)
	}
	if st.Responses4xx < 1 {
		t.Errorf("responses_4xx_total = %d, want ≥ 1", st.Responses4xx)
	}
	if st.WorkerAcquires < 1 {
		t.Errorf("worker_acquires_total = %d, want ≥ 1", st.WorkerAcquires)
	}
	if st.WorkerBudget != 2 {
		t.Errorf("worker_budget = %d, want 2", st.WorkerBudget)
	}
}

// TestStreamTraceOnDoneLine checks the opt-in trace rides the stream's done
// line and stays off by default.
func TestStreamTraceOnDoneLine(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})

	status, body := postJSON(t, ts.URL+"/v2/query/stream",
		`{"kind":"replicas","sim":{"nodes":8,"superframes":2},"replicas":3,"trace":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var done query.StreamDone
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Count != 3 {
		t.Fatalf("done line %+v", done)
	}
	if done.Trace == nil || done.Trace.Tasks != 3 || len(done.Trace.Spans) != 3 {
		t.Fatalf("trace %+v, want 3 spans", done.Trace)
	}

	// Without the opt-in the done line carries no trace.
	status, body = postJSON(t, ts.URL+"/v2/query/stream",
		`{"kind":"replicas","sim":{"nodes":8,"superframes":2},"replicas":3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines = strings.Split(strings.TrimSpace(string(body)), "\n")
	done = query.StreamDone{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
		t.Fatal(err)
	}
	if done.Trace != nil {
		t.Fatal("trace present without opt-in")
	}
}
