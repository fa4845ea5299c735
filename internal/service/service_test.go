package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/netsim"
	"dense802154/internal/query"
)

// newTestServer starts the service over a real listener with an unbounded
// cache and no request deadline.
func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// postJSON round-trips one request and decodes the response body.
func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// fig8BatchWire builds a multi-point Fig. 8 workload: payload sizes at two
// network loads, with a short Monte-Carlo run so the test stays quick.
func fig8BatchWire() []ParamsWire {
	var out []ParamsWire
	for _, load := range []float64{0.10, 0.42} {
		for _, payload := range []int{20, 60, 120} {
			payload, load := payload, load
			l := Float(load)
			out = append(out, ParamsWire{
				PayloadBytes: &payload,
				Load:         &l,
				Contention:   &query.ContentionWire{Superframes: 16, Seed: int64p(7)},
			})
		}
	}
	return out
}

func TestBatchBitIdenticalToInProcess(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})

	wires := fig8BatchWire()
	body, _ := json.Marshal(batchRequest{Params: wires})
	status, respBody := postJSON(t, ts.URL+"/v1/batch", string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, respBody)
	}
	var resp batchResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) != len(wires) {
		t.Fatalf("%d metrics for %d params", len(resp.Metrics), len(wires))
	}

	// The same workload computed in process, at a different worker count.
	ps := make([]core.Params, len(wires))
	for i, w := range wires {
		p, aerr := w.Params(1, 1)
		if aerr != nil {
			t.Fatal(aerr)
		}
		ps[i] = p
	}
	want, err := core.EvaluateBatch(context.Background(), 1, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := resp.Metrics[i].Metrics(); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("batch[%d] over HTTP diverges from in-process EvaluateBatch:\n got %+v\nwant %+v",
				i, got, want[i])
		}
	}
}

func TestEvaluateMatchesBatchElement(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	status, body := postJSON(t, ts.URL+"/v1/evaluate",
		`{"params":{"payload_bytes":60,"load":0.42,"contention":{"superframes":16,"seed":7}}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp evaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	payload, load := 60, Float(0.42)
	p, aerr := ParamsWire{
		PayloadBytes: &payload, Load: &load,
		Contention: &query.ContentionWire{Superframes: 16, Seed: int64p(7)},
	}.Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	want, err := core.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Metrics.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("evaluate over HTTP diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestCaseStudyBitIdenticalToInProcess(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	req := `{
		"params": {"contention": {"superframes": 16, "seed": 7}},
		"config": {"loss_grid_points": 11}
	}`
	status, body := postJSON(t, ts.URL+"/v1/casestudy", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp caseStudyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}

	p, aerr := ParamsWire{Contention: &query.ContentionWire{Superframes: 16, Seed: int64p(7)}}.Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	cfg := core.DefaultCaseStudy()
	cfg.LossGridPoints = 11
	direct, err := core.RunCaseStudy(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.WireCaseStudyResult(direct); !reflect.DeepEqual(resp.Result, want) {
		t.Fatalf("case study over HTTP diverges:\n got %+v\nwant %+v", resp.Result, want)
	}
	if resp.Result.AvgPowerW <= 0 {
		t.Fatal("nonpositive average power")
	}
}

func TestBatchStreamingMatchesNonStreaming(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	wires := fig8BatchWire()
	body, _ := json.Marshal(batchRequest{Params: wires, Stream: true})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	got := make(map[int]MetricsWire)
	var done bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ln batchLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ln.Done {
			done = true
			if ln.Count != len(wires) {
				t.Fatalf("done count %d, want %d", ln.Count, len(wires))
			}
			if ln.Index != nil {
				t.Fatalf("summary line carries an index: %s", sc.Text())
			}
			continue
		}
		if ln.Index == nil {
			t.Fatalf("result line without index: %s", sc.Text())
		}
		if ln.Error != "" {
			t.Fatalf("line %d carries error %q", *ln.Index, ln.Error)
		}
		if _, dup := got[*ln.Index]; dup {
			t.Fatalf("index %d streamed twice", *ln.Index)
		}
		got[*ln.Index] = *ln.Metrics
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done || len(got) != len(wires) {
		t.Fatalf("stream ended with %d lines, done=%v", len(got), done)
	}

	ps := make([]core.Params, len(wires))
	for i, w := range wires {
		p, aerr := w.Params(1, 1)
		if aerr != nil {
			t.Fatal(aerr)
		}
		ps[i] = p
	}
	want, err := core.EvaluateBatch(context.Background(), 1, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Metrics(), want[i]) {
			t.Fatalf("streamed[%d] diverges from in-process batch", i)
		}
	}
}

func TestMalformedPayloadsAre400s(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantField        string
	}{
		{"syntax", "/v1/evaluate", `{"params":`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/evaluate", `{"params":{"paylod_bytes":10}}`, http.StatusBadRequest, ""},
		{"trailing garbage", "/v1/evaluate", `{"params":{}} extra`, http.StatusBadRequest, ""},
		{"trailing close brace", "/v1/evaluate", `{"params":{}}}`, http.StatusBadRequest, ""},
		{"trailing close bracket", "/v1/evaluate", `{"params":{}}]`, http.StatusBadRequest, ""},
		{"v2 trailing close brace", "/v2/query", `{"kind":"evaluate","params":{}}}`, http.StatusBadRequest, ""},
		{"bad radio", "/v1/evaluate", `{"params":{"radio":"nrf24"}}`, http.StatusBadRequest, "radio"},
		{"bad payload", "/v1/evaluate", `{"params":{"payload_bytes":0}}`, http.StatusBadRequest, "params"},
		{"bad superframe", "/v1/evaluate", `{"params":{"superframe":{"bo":2,"so":9}}}`, http.StatusBadRequest, "superframe"},
		{"empty batch", "/v1/batch", `{"params":[]}`, http.StatusBadRequest, "params"},
		{"bad batch element", "/v1/batch", `{"params":[{},{"load":2.5}]}`, http.StatusBadRequest, "params[1].params"},
		{"bad casestudy grid", "/v1/casestudy", `{"config":{"loss_grid_points":1}}`, http.StatusBadRequest, "config.loss_grid_points"},
		{"bad sim prob", "/v1/simulate", `{"config":{"transmit_prob":1.5}}`, http.StatusBadRequest, "config.transmit_prob"},
		{"bad sim nmax", "/v1/simulate", `{"config":{"n_max":-1},"replicas":2}`, http.StatusBadRequest, "config.n_max"},
		{"bad sim payload", "/v1/simulate", `{"config":{"payload_bytes":4000}}`, http.StatusBadRequest, "config.payload_bytes"},
		{"bad replicas", "/v1/simulate", `{"replicas":99999}`, http.StatusBadRequest, "replicas"},
		{"bad stream flag", "/v1/batch?stream=maybe", `{"params":[{}]}`, http.StatusBadRequest, "stream"},
		{"unknown experiment", "/v1/experiments/fig99", `{}`, http.StatusNotFound, "name"},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+tc.path, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, body)
			continue
		}
		if eb.Error.Message == "" || eb.Error.Status != tc.wantStatus {
			t.Errorf("%s: error body %+v", tc.name, eb)
		}
		if tc.wantField != "" && eb.Error.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.name, eb.Error.Field, tc.wantField)
		}
	}
}

func TestSimulateReplicasOverHTTP(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	status, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"config":{"nodes":20,"superframes":4,"seed":3},"replicas":3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp simulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Replicas != 3 || len(resp.Results) != 3 {
		t.Fatalf("got %d replicas / %d results", resp.Replicas, len(resp.Results))
	}
	if resp.Seeds[0] != 3 {
		t.Fatalf("seed[0] = %d, want the base seed 3", resp.Seeds[0])
	}
	if resp.AvgPowerUW.Mean <= 0 || resp.DeliveryRatio.Mean <= 0 {
		t.Fatalf("implausible stats: %+v", resp)
	}
	// Replica 0 must reproduce the direct simulation.
	direct := query.WireSimResult(3, directSim(t))
	if !reflect.DeepEqual(resp.Results[0], direct) {
		t.Fatalf("replica 0 over HTTP diverges:\n got %+v\nwant %+v", resp.Results[0], direct)
	}
}

func directSim(t *testing.T) netsim.Result {
	t.Helper()
	cfg, aerr := (&SimConfigWire{Nodes: intp(20), Superframes: intp(4), Seed: int64p(3)}).Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	return netsim.Run(cfg)
}

func TestExperimentEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list experimentListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) == 0 {
		t.Fatal("no experiments registered")
	}
	names := make(map[string]bool)
	for _, e := range list.Experiments {
		names[e.Name] = true
	}
	if !names["casestudy"] || !names["fig8"] {
		t.Fatalf("expected casestudy and fig8 in %v", names)
	}

	status, body := postJSON(t, ts.URL+"/v1/experiments/casestudy", `{"quick":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var run query.ExperimentReportWire
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Name != "casestudy" || len(run.Tables) == 0 || len(run.Tables[0].Rows) == 0 {
		t.Fatalf("empty experiment result: %+v", run)
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, CacheLimit: 128})
	t.Cleanup(func() { contention.SetCacheLimit(0) })

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	// Two identical evaluations: the second must hit the contention cache.
	body := `{"params":{"contention":{"superframes":12,"seed":99}}}`
	postJSON(t, ts.URL+"/v1/evaluate", body)
	postJSON(t, ts.URL+"/v1/evaluate", body)

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 3 {
		t.Fatalf("requests_total = %d, want ≥ 3", st.Requests)
	}
	if st.WorkerBudget != 2 {
		t.Fatalf("worker budget %d, want 2", st.WorkerBudget)
	}
	if st.Cache.Limit != 128 {
		t.Fatalf("cache limit %d, want 128", st.Cache.Limit)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits recorded after identical evaluations: %+v", st.Cache)
	}
}

func TestClientCancellationMidRequest(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	// A slow request: a huge path-loss grid with the cheap closed-form
	// source — long enough to outlive the cancellation, cancelable
	// between grid points.
	req := `{
		"params": {"contention": {"source": "approx"}},
		"config": {"loss_grid_points": 100000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/casestudy", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")

	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with %d despite cancellation", resp.StatusCode)
		}
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-errCh:
		if !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("unexpected client error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled request did not return")
	}

	// The worker token must come back: a follow-up request succeeds.
	status, body := postJSON(t, ts.URL+"/v1/evaluate",
		`{"params":{"contention":{"source":"approx"}}}`)
	if status != http.StatusOK {
		t.Fatalf("post-cancel request: %d %s", status, body)
	}
}

func TestStreamFalseQueryKeepsJSONResponse(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	status, body := postJSON(t, ts.URL+"/v1/batch?stream=0",
		`{"params":[{"contention":{"source":"approx"}}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Metrics) != 1 {
		t.Fatalf("?stream=0 did not produce the plain JSON batch response: %s", body)
	}
}

func TestRequestDeadlineIs503(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Nanosecond})
	// The deadline is checked both at worker acquisition and per grid
	// point inside the sweep, so a sweep request observes it reliably.
	status, body := postJSON(t, ts.URL+"/v1/casestudy",
		`{"params":{"contention":{"source":"approx"}},"config":{"loss_grid_points":10001}}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, body)
	}
}

func TestConcurrentClientsShareOnePool(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*3)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := 20 + 10*(c%4)
			body := fmt.Sprintf(
				`{"params":{"payload_bytes":%d,"contention":{"superframes":8,"seed":5}}}`, payload)
			for i := 0; i < 3; i++ {
				resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
					strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: %d %s", c, resp.StatusCode, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Identical requests from different clients must have produced
	// identical bytes: re-issue two and compare.
	_, a := postJSON(t, ts.URL+"/v1/evaluate", `{"params":{"payload_bytes":20,"contention":{"superframes":8,"seed":5}}}`)
	_, b := postJSON(t, ts.URL+"/v1/evaluate", `{"params":{"payload_bytes":20,"contention":{"superframes":8,"seed":5}}}`)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical requests produced different bytes:\n%s\n%s", a, b)
	}
}
