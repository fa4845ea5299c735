package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dense802154/internal/service"
)

// TestStreamMatchesHTTPStream pins -stream to the /v2/query/stream framing:
// for a lifetime query the CLI writes the same task lines and the same done
// line, lifetime_summary included, byte for byte.
func TestStreamMatchesHTTPStream(t *testing.T) {
	const doc = `{"kind":"lifetime","sim":{"nodes":8,"superframes":2},"lifetime":{"capacity_j":0.3,"epoch_superframes":4},"replicas":2}`
	file := filepath.Join(t.TempDir(), "query.json")
	if err := os.WriteFile(file, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := run(&cli, file, 1, true, false, false); err != nil {
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
