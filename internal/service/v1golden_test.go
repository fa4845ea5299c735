package service

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update regenerates the v1 wire goldens from the current code:
//
//	go test ./internal/service -run TestV1WireGolden -update
var update = flag.Bool("update", false, "rewrite the v1 wire goldens under testdata/v1 from this run")

// oversizedList renders a JSON array of n copies of v.
func oversizedList(n int, v string) string {
	return "[" + strings.TrimSuffix(strings.Repeat(v+",", n), ",") + "]"
}

// TestV1WireGolden pins the frozen v1 wire byte for byte: the status line,
// content type and body of every POST v1 route, on success and on the error
// paths. The other v1 tests compare decoded values; this one is the gate
// that lets the v1 implementation change while its bytes cannot. The server
// runs one worker, so the streamed batch arrives in element order.
func TestV1WireGolden(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})

	const (
		approx = `{"contention":{"source":"approx"}}`
		mc     = `{"payload_bytes":60,"contention":{"superframes":8,"seed":3}}`
		mc2    = `{"payload_bytes":20,"load":0.3,"contention":{"superframes":8,"seed":5}}`
	)
	cases := []struct{ name, path, body string }{
		// Success bodies, one or more per POST route.
		{"evaluate", "/v1/evaluate", `{"params":` + mc + `}`},
		{"evaluate-approx", "/v1/evaluate", `{"params":{"payload_bytes":90,"path_loss_db":80,"contention":{"source":"approx"}}}`},
		{"batch", "/v1/batch", `{"params":[` + mc + `,` + mc2 + `,` + approx + `]}`},
		{"batch-stream-query", "/v1/batch?stream=1", `{"params":[` + mc + `,` + mc2 + `,` + approx + `]}`},
		{"batch-stream-body", "/v1/batch", `{"params":[` + mc2 + `,` + approx + `],"stream":true}`},
		{"batch-stream-false", "/v1/batch?stream=0", `{"params":[` + approx + `],"stream":true}`},
		{"casestudy", "/v1/casestudy", `{"params":` + mc + `,"config":{"loss_grid_points":11}}`},
		{"pathloss-default", "/v1/sweep/pathloss", `{"params":` + approx + `}`},
		{"pathloss-explicit", "/v1/sweep/pathloss", `{"params":` + mc + `,"losses":[60,75,90]}`},
		{"thresholds-default", "/v1/sweep/thresholds", `{"params":` + approx + `}`},
		{"thresholds-explicit", "/v1/sweep/thresholds", `{"params":` + mc + `,"losses":[60,62,64,66,68,70,72,74,76,78,80]}`},
		{"payload-default", "/v1/sweep/payload", `{"params":` + approx + `}`},
		{"payload-explicit", "/v1/sweep/payload", `{"params":` + mc + `,"sizes":[20,60,120]}`},
		{"pathloss-nan-loss", "/v1/sweep/pathloss", `{"params":` + approx + `,"losses":["NaN",70]}`},
		{"simulate-replicas-omitted", "/v1/simulate", `{"config":{"nodes":10,"superframes":4,"seed":7}}`},
		{"simulate-replicas-3", "/v1/simulate", `{"config":{"nodes":10,"superframes":4},"replicas":3,"workers":2}`},
		{"experiment-fig8-quick", "/v1/experiments/fig8", `{"quick":true}`},
		{"scenario-sparse-idle-diff", "/v1/scenarios/sparse-idle", `{"diff":true}`},

		// Error bodies: every row of TestMalformedPayloadsAre400s ...
		{"err-syntax", "/v1/evaluate", `{"params":`},
		{"err-unknown-field", "/v1/evaluate", `{"params":{"paylod_bytes":10}}`},
		{"err-trailing-garbage", "/v1/evaluate", `{"params":{}} extra`},
		{"err-bad-radio", "/v1/evaluate", `{"params":{"radio":"nrf24"}}`},
		{"err-bad-payload", "/v1/evaluate", `{"params":{"payload_bytes":0}}`},
		{"err-bad-superframe", "/v1/evaluate", `{"params":{"superframe":{"bo":2,"so":9}}}`},
		{"err-empty-batch", "/v1/batch", `{"params":[]}`},
		{"err-bad-batch-element", "/v1/batch", `{"params":[{},{"load":2.5}]}`},
		{"err-bad-casestudy-grid", "/v1/casestudy", `{"config":{"loss_grid_points":1}}`},
		{"err-bad-sim-prob", "/v1/simulate", `{"config":{"transmit_prob":1.5}}`},
		{"err-bad-sim-nmax", "/v1/simulate", `{"config":{"n_max":-1},"replicas":2}`},
		{"err-bad-sim-payload", "/v1/simulate", `{"config":{"payload_bytes":4000}}`},
		{"err-bad-replicas", "/v1/simulate", `{"replicas":99999}`},
		{"err-bad-stream-flag", "/v1/batch?stream=maybe", `{"params":[{}]}`},
		{"err-unknown-experiment", "/v1/experiments/fig99", `{}`},
		// ... plus the v1-only bounds and lookups.
		{"err-bad-sim-and-replicas", "/v1/simulate", `{"config":{"n_max":-1},"replicas":99999}`},
		{"err-oversized-batch", "/v1/batch", `{"params":` + oversizedList(10001, `{}`) + `}`},
		{"err-oversized-losses", "/v1/sweep/pathloss", `{"losses":` + oversizedList(100001, `70`) + `}`},
		{"err-oversized-threshold-losses", "/v1/sweep/thresholds", `{"losses":` + oversizedList(100001, `70`) + `}`},
		{"err-oversized-sizes", "/v1/sweep/payload", `{"sizes":` + oversizedList(100001, `20`) + `}`},
		{"err-bad-sweep-params", "/v1/sweep/pathloss", `{"params":{"radio":"nrf24"},"losses":[60]}`},
		{"err-bad-payload-size", "/v1/sweep/payload", `{"params":` + approx + `,"sizes":[0]}`},
		{"err-experiment-unknown-field", "/v1/experiments/fig8", `{"quik":true}`},
		{"err-unknown-scenario", "/v1/scenarios/nope", `{}`},
		{"err-unknown-scenario-bad-body", "/v1/scenarios/nope", `{"diff":`},
		{"err-scenario-bad-body", "/v1/scenarios/sparse-idle", `{"workers":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := append([]byte(strconv.Itoa(resp.StatusCode)+" "+resp.Header.Get("Content-Type")+"\n"), body...)
			path := filepath.Join("testdata", "v1", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s deviates from %s:\n got: %.600s\nwant: %.600s", tc.path, tc.body[:min(len(tc.body), 80)], path, got, want)
			}
		})
	}

	// v1 requests are not v2 queries: none of them counts in wsn_query_total.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(metrics, []byte("\nwsn_query_total{")) {
		t.Errorf("v1 requests were counted as v2 queries:\n%s", metrics)
	}
}
