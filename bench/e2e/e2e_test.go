package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dense802154/internal/dist"
	"dense802154/internal/service"
	"dense802154/internal/store"
)

// streamHash hashes the warm-up requests and the first 64 timed requests of
// a workload's stream.
func streamHash(w workload, seed int64) string {
	h := sha256.New()
	for _, r := range w.warmup(seed) {
		h.Write(r.body)
	}
	next := w.requests(seed)
	for i := 0; i < 64; i++ {
		h.Write(next(i).body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedStreams are the seed-1 request-stream hashes. A change here changes
// what the benchmark measures, and needs a new baseline.
var pinnedStreams = map[string]string{
	"grid-cold":   "6c2791ccb2f8ccda6a7951d4011308ce50e30fcf52bc1e1381887e2f31d71d32",
	"warm-mix":    "497fba636fe89b8fcf1fdac946275ae93b4d272c979b4dde0251c4854011d40e",
	"sim-stream":  "6d9e38e7068214d18d607e9394950b1db1fdc232c69353e68e573900e2c3c36b",
	"lifetime":    "e29d8de4195c64881a8a53a90ce18ee7b428a033c7d083d10aaf54c7f4d49e2e",
	"dist-fanout": "efa4bcae971dff681b8224b77737f7c2b86d16fc38444c9d1a21c55768a16caf",
}

func TestRequestStreamsArePinned(t *testing.T) {
	for _, w := range workloads {
		if got := streamHash(w, 1); got != pinnedStreams[w.name] {
			t.Errorf("%s: seed 1 stream hash %s, pinned %s", w.name, got, pinnedStreams[w.name])
		}
		if streamHash(w, 1) == streamHash(w, 2) {
			t.Errorf("%s: seeds 1 and 2 generate the same requests", w.name)
		}
	}
}

func TestWarmMixShape(t *testing.T) {
	next := workloads[1].requests(1)
	fresh := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if next(i).fresh {
			fresh++
		}
	}
	if share := float64(fresh) / n; math.Abs(share-freshShare) > 0.02 {
		t.Errorf("fresh share %.3f, want %.2f", share, freshShare)
	}
	if got := len(workingSet(1)); got != workingSetSize {
		t.Errorf("working set has %d queries, want %d", got, workingSetSize)
	}
}

func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return b
}

// newTestServer is wsn-serve's configuration in httptest: its own default
// store, and with peers a coordinator sharing that store.
func newTestServer(t *testing.T, workers int, peers []string) *httptest.Server {
	t.Helper()
	st, err := store.New(store.Config{MaxBytes: store.DefaultMaxBytes})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{Workers: workers, CacheLimit: 4096, Store: st}
	if len(peers) > 0 {
		cfg.Distributor = dist.New(dist.Options{Workers: peers, Store: st})
	}
	srv := httptest.NewServer(service.NewServer(cfg))
	t.Cleanup(srv.Close)
	return srv
}

// TestReplayMatchesHandler pins the traced pipeline to the real handlers: a
// cold request and the same request again (a store hit) must come back with
// the bytes service.NewServer answers with, for every workload.
func TestReplayMatchesHandler(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			workers, peers := 2, []string(nil)
			if w.dist {
				workers = 1
				for i := 0; i < 2; i++ {
					peers = append(peers, newTestServer(t, 1, nil).URL)
				}
			}
			srv := newTestServer(t, workers, peers)
			p, err := newPipeline(workers, peers)
			if err != nil {
				t.Fatal(err)
			}
			url := srv.URL + "/v2/query"
			if w.stream {
				url += "/stream"
			}
			next := w.requests(7)
			cold := next(0)
			for i := 1; !cold.fresh && w.name == "warm-mix"; i++ {
				cold = next(i)
			}
			for _, req := range []request{cold, cold, next(1)} {
				want := post(t, url, req.body)
				rec := newRecorder(time.Now(), 0)
				p.setRecorder(rec)
				got, err := p.serve(req.body, w.stream, rec)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("pipeline bytes differ from the handler's for %s", req.body)
				}
				if times, _ := rec.derive(); times.wall <= 0 || times.unattributed > 0.05*times.wall+0.05 {
					t.Errorf("traced request: wall %.3f ms, unattributed %.3f ms", times.wall, times.unattributed)
				}
			}
		})
	}
}
