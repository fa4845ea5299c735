package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dense802154"
	"dense802154/internal/service"
)

// writeQuery stores a query document in a temporary file for run.
func writeQuery(t *testing.T, doc string) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "query.json")
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestPaperRecipesMatchRun pins the package doc's recipes for the paper's
// results: the model at one operating point, a table/figure driver and a
// catalog scenario diffed against its golden. The CLI must write exactly
// the bytes dense802154.Run encodes for the same document.
func TestPaperRecipesMatchRun(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		check     func(t *testing.T, rs *dense802154.ResultSet)
	}{
		{
			name: "evaluate",
			doc:  `{"kind":"evaluate","params":{"payload_bytes":120,"load":0.433,"path_loss_db":75,"tx_level":-1,"superframe":{"bo":6,"so":6},"n_max":5}}`,
			check: func(t *testing.T, rs *dense802154.ResultSet) {
				m := rs.Results[0].Metrics
				if m.TXLevelIndex != 2 || math.Abs(float64(m.PrCF)-0.1155) > 5e-5 {
					t.Fatalf("TX level %d, Prcf %v; want 2 and 0.1155", m.TXLevelIndex, m.PrCF)
				}
			},
		},
		{
			name: "experiment",
			doc:  `{"kind":"experiment","experiment":"fig6","quick":true,"seed":7}`,
		},
		{
			name: "scenario",
			doc:  `{"kind":"scenario","scenario":"dense-moderate","diff":true}`,
			check: func(t *testing.T, rs *dense802154.ResultSet) {
				if d := rs.Results[0].Scenario.Diff; d == nil || !d.Pass {
					t.Fatalf("scenario diff %+v, want a passing report", d)
				}
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var cli bytes.Buffer
			if err := run(&cli, writeQuery(t, c.doc), 2, false, false, false); err != nil {
				t.Fatal(err)
			}
			var q dense802154.Query
			if err := json.Unmarshal([]byte(c.doc), &q); err != nil {
				t.Fatal(err)
			}
			rs, err := dense802154.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rs.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cli.Bytes(), want) {
				t.Fatalf("wsn-query deviates from dense802154.Run:\n cli: %s\n run: %s", cli.Bytes(), want)
			}
			if c.check != nil {
				c.check(t, rs)
			}
		})
	}
}

// TestRejectsTrailingData pins the /v2/query decoding rule: anything but
// whitespace after the query — a second document, a stray closing brace or
// bracket — is an error, not silently dropped.
func TestRejectsTrailingData(t *testing.T) {
	const doc = `{"kind":"evaluate","params":{"payload_bytes":60}}`
	for _, trailer := range []string{` {"kind":"grid"}`, `}`, `]`, " }\n"} {
		file := writeQuery(t, doc+trailer)
		var out bytes.Buffer
		err := run(&out, file, 1, false, false, false)
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("trailer %q: err = %v, want a trailing-data error", trailer, err)
		}
		if out.Len() != 0 {
			t.Fatalf("trailer %q: wrote %q before rejecting the document", trailer, out.Bytes())
		}
	}
}

// TestStreamMatchesHTTPStream pins -stream to the /v2/query/stream framing:
// for a lifetime query the CLI writes the same task lines and the same done
// line, lifetime_summary included, byte for byte.
func TestStreamMatchesHTTPStream(t *testing.T) {
	const doc = `{"kind":"lifetime","sim":{"nodes":8,"superframes":2},"lifetime":{"capacity_j":0.3,"epoch_superframes":4},"replicas":2}`
	var cli bytes.Buffer
	if err := run(&cli, writeQuery(t, doc), 1, true, false, false); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(service.NewServer(service.Config{Workers: 2}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/query/stream", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	if !bytes.Contains(served, []byte(`"lifetime_summary":`)) {
		t.Fatalf("server done line carries no lifetime_summary:\n%s", served)
	}
	if !bytes.Equal(cli.Bytes(), served) {
		t.Fatalf("wsn-query -stream deviates from /v2/query/stream:\n cli: %s\nhttp: %s", cli.Bytes(), served)
	}
}
