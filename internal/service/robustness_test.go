package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dense802154/internal/dist"
)

// ---- liveness / readiness split ----

func TestLivezAndReadyz(t *testing.T) {
	app := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(app)
	t.Cleanup(ts.Close)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/livez"); got != http.StatusOK {
		t.Fatalf("/livez = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d", got)
	}
	// Draining: not ready, but still live — the distinction the coordinator
	// and the process supervisor key on respectively.
	app.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/livez"); got != http.StatusOK {
		t.Fatalf("/livez while draining = %d, want 200", got)
	}
	app.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after readmission = %d", got)
	}
}

// ---- panic recovery middleware ----

func TestPanicRecoveryAnswers500AndCounts(t *testing.T) {
	app := NewServer(Config{Workers: 1})
	app.handle("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(app)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("panic response is not structured JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || body.Error.Status != http.StatusInternalServerError {
		t.Fatalf("panic answered %d / %d, want 500", resp.StatusCode, body.Error.Status)
	}
	if got := app.httpPanics.Value(); got != 1 {
		t.Fatalf("wsn_http_panics_total = %d, want 1", got)
	}
	_, _, _, resp5xx := app.stats.snapshot()
	if resp5xx != 1 {
		t.Fatalf("recovered panic not in the 5xx ledger (got %d)", resp5xx)
	}
	// The server survived: a normal route still answers.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a panic = %d", resp.StatusCode)
	}
}

func TestMetricsCollectorPanicRecovered(t *testing.T) {
	// /metrics renders into a buffer, so a panicking GaugeFunc collector
	// fires before any byte is written and the recovery layer can still
	// answer a structured 500 instead of a truncated scrape.
	app := NewServer(Config{Workers: 1})
	app.reg.GaugeFunc("test_exploding_gauge", "Panics on collection.", func() float64 {
		panic("collector boom")
	})
	ts := httptest.NewServer(app)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || decErr != nil {
		t.Fatalf("collector panic answered %d (decode err %v), want structured 500", resp.StatusCode, decErr)
	}
	if got := app.httpPanics.Value(); got != 1 {
		t.Fatalf("wsn_http_panics_total = %d, want 1", got)
	}
}

// ---- per-query deadline: structured 504 ----

// slowQuery is a workload far beyond a 1 ms budget.
const slowQuery = `{"kind":"replicas","sim":{"nodes":40,"superframes":50},"replicas":40`

func TestQueryTimeoutMSAnswers504(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	status, body := postJSON(t, ts.URL+"/v2/query", slowQuery+`,"timeout_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query answered %d: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Status != http.StatusGatewayTimeout {
		t.Fatalf("504 body not structured: %s", body)
	}
}

// TestServerQueryTimeoutAnswers504: the server's RequestTimeout (wsn-serve's
// -timeout), with no timeout_ms in the query, expiring mid-execution is
// answered like an exceeded timeout_ms: a structured 504 on /v2/query and a
// terminal 504 error line on /v2/query/stream.
func TestServerQueryTimeoutAnswers504(t *testing.T) {
	// Long enough to acquire workers and start, far too short to finish a
	// query hundreds of times slowQuery's 1 ms budget.
	const slower = `{"kind":"replicas","sim":{"nodes":100,"superframes":200},"replicas":64}`
	ts := newTestServer(t, Config{Workers: 2, RequestTimeout: 20 * time.Millisecond})
	status, body := postJSON(t, ts.URL+"/v2/query", slower)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query answered %d: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Status != http.StatusGatewayTimeout {
		t.Fatalf("504 body not structured: %s", body)
	}
	if terminal := lastStreamLine(t, ts.URL, slower); terminal.Done || terminal.Error.Status != http.StatusGatewayTimeout {
		t.Fatalf("terminal line = %+v, want done=false status=504", terminal)
	}
}

func TestQueryStreamTimeoutDrainsCleanly(t *testing.T) {
	// The stream form already answered 200 when the deadline fires, so the
	// failure must arrive as a terminal NDJSON error line — the stream ends
	// cleanly instead of hanging or truncating without explanation.
	ts := newTestServer(t, Config{Workers: 2})
	if terminal := lastStreamLine(t, ts.URL, slowQuery+`,"timeout_ms":1}`); terminal.Done || terminal.Error.Status != http.StatusGatewayTimeout {
		t.Fatalf("terminal line = %+v, want done=false status=504", terminal)
	}
}

// lastStreamLine posts query to /v2/query/stream, which must answer 200,
// drains the stream to EOF and decodes its last line as a terminal error
// line.
func lastStreamLine(t *testing.T, url, query string) queryStreamErrorLine {
	t.Helper()
	resp, err := http.Post(url+"/v2/query/stream", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream answered %d before the deadline could fire", resp.StatusCode)
	}
	var last string
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if strings.TrimSpace(line) != "" {
			last = line
		}
		if err != nil {
			break // drained to EOF: the server closed the stream cleanly
		}
	}
	var terminal queryStreamErrorLine
	if err := json.Unmarshal([]byte(last), &terminal); err != nil {
		t.Fatalf("terminal line %q not a stream error line: %v", last, err)
	}
	return terminal
}

// ---- POST /v2/tasks: the worker half of distribution ----

func TestTasksStreamsRangeInOrder(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	body := `{"query":{"kind":"grid",` +
		`"params":{"contention":{"superframes":8,"seed":3}},` +
		`"losses":{"values":[55,70,85]},"payloads":{"values":[20,100]}},` +
		`"from":1,"to":4}`
	status, raw := postJSON(t, ts.URL+"/v2/tasks", body)
	if status != http.StatusOK {
		t.Fatalf("/v2/tasks answered %d: %s", status, raw)
	}
	var lines []dist.TaskLine
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	for dec.More() {
		var l dist.TaskLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 tasks + done", len(lines))
	}
	for i, l := range lines[:3] {
		if l.Result == nil || l.Index != 1+i || l.Result.Index != 1+i {
			t.Fatalf("line %d = %+v, want result for plan index %d", i, l, 1+i)
		}
		if l.WallMS < 0 {
			t.Fatalf("line %d reports negative wall time", i)
		}
	}
	if done := lines[3]; !done.Done || done.Count != 3 {
		t.Fatalf("terminal line = %+v, want done=true count=3", done)
	}
}

func TestTasksRejections(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	grid := `"query":{"kind":"grid","params":{"contention":{"superframes":8,"seed":3}},"losses":{"values":[55,70]}}`
	for name, body := range map[string]string{
		"inverted range":  `{` + grid + `,"from":2,"to":1}`,
		"past plan end":   `{` + grid + `,"from":0,"to":99}`,
		"negative from":   `{` + grid + `,"from":-1,"to":1}`,
		"broken query":    `{"query":{"kind":"nope"},"from":0,"to":1}`,
		"malformed range": `{` + grid + `,"from":"zero"}`,
	} {
		status, raw := postJSON(t, ts.URL+"/v2/tasks", body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: answered %d (%s), want 400", name, status, raw)
		}
	}
}
