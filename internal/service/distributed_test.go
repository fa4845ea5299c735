package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"dense802154/internal/dist"
	"dense802154/internal/store"
)

// distFleet starts n in-process workers and a coordinator server fronting
// them, each with its own result store as wsn-serve has by default. It
// returns the workers' Servers and the coordinator's URL.
func distFleet(t *testing.T, n int, opts dist.Options) ([]*Server, string) {
	t.Helper()
	newStore := func() *store.Store {
		st, err := store.New(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	workers := make([]*Server, n)
	for i := range workers {
		workers[i] = NewServer(Config{Workers: 2, Store: newStore()})
		ts := httptest.NewServer(workers[i])
		t.Cleanup(ts.Close)
		opts.Workers = append(opts.Workers, ts.URL)
	}
	st := newStore()
	opts.Store = st
	coord := newTestServer(t, Config{Workers: 2, Store: st, Distributor: dist.New(opts)})
	return workers, coord.URL
}

// postQuery posts a v2 query and returns the response body, failing the
// test on anything but a 200.
func postQuery(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v2/query", "application/json", strings.NewReader(body))
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

// TestDrainingWorkerServesNoShard: a worker the coordinator still vouches
// for is drained (SetReady(false)) between two queries. Its /readyz is not
// asked again, so the drain is seen at the next dispatch: /v2/tasks answers
// 503, the coordinator evicts the worker and the range runs on the other
// one, with the bytes of a local run.
func TestDrainingWorkerServesNoShard(t *testing.T) {
	workers, coord := distFleet(t, 2, dist.Options{
		ShardSize:    2,
		RetryBase:    time.Millisecond,
		RetryCap:     10 * time.Millisecond,
		ReprobeAfter: time.Minute,
	})
	local := newTestServer(t, Config{Workers: 2})
	q := func(seed int) string {
		return fmt.Sprintf(`{"kind":"grid","params":{"contention":{"superframes":8,"seed":%d}},`+
			`"losses":{"values":[55,70,85]},"payloads":{"values":[20,100]}}`, seed)
	}
	if got, want := postQuery(t, coord, q(3)), postQuery(t, local.URL, q(3)); !bytes.Equal(got, want) {
		t.Fatal("distributed bytes deviate from local before the drain")
	}

	drained := workers[0]
	served := func(code string) uint64 { return drained.httpRequests.With("POST /v2/tasks", code).Value() }
	if served("200") == 0 {
		t.Fatal("the first query dispatched nothing to the worker about to drain")
	}
	drained.SetReady(false)
	// The handler's metrics are counted after its response went out, and
	// the in-flight gauge drops only after the count: once it reads 0, no
	// shard of the first query can still be counted as served after the
	// drain.
	deadline := time.Now().Add(5 * time.Second)
	for drained.httpInFlight.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	before := served("200")
	if got, want := postQuery(t, coord, q(4)), postQuery(t, local.URL, q(4)); !bytes.Equal(got, want) {
		t.Fatal("distributed bytes deviate from local after the drain")
	}
	for served("503") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if served("503") == 0 {
		t.Error("the coordinator never dispatched to the drained worker")
	}
	if d := served("200") - before; d != 0 {
		t.Errorf("the drained worker served %d shards", d)
	}
}

// allocsWithoutGC is testing.AllocsPerRun with the collector off. An HTTP
// exchange refills sync.Pools after every collection, so with the
// collector on its count follows the heap size and the GC timing rather
// than the code path.
func allocsWithoutGC(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestDistributedQueryAllocBudget guards a whole distributed query in
// steady state: a coordinator and two workers in one process answer a
// never-seen 1,000-point grid (the contention configurations warm, the
// fleet vouched for by the warm-up query). The count covers both sides of
// every internal exchange, so per-query readiness probes (about 100
// allocations each) or a per-line allocation anywhere fail it.
func TestDistributedQueryAllocBudget(t *testing.T) {
	_, coord := distFleet(t, 2, dist.Options{})
	n := 0
	run := func() {
		n++
		body := strings.Replace(grid1000Body, `"from":50,`, fmt.Sprintf(`"from":%d.%03d,`, 50, n), 1)
		postQuery(t, coord, body)
	}
	run() // warm-up: admission, connections, contention cache
	allocs := allocsWithoutGC(5, run)
	if allocs > distQueryAllocBudget {
		t.Fatalf("a cold distributed 1000-point grid allocated %v, budget %d", allocs, distQueryAllocBudget)
	}
	t.Logf("cold distributed 1000-point grid: %v allocs", allocs)
}

// TestDistributedPrefillAllocBudget guards the coordinator's store prefill:
// a traced repeat of a stored, distributed 1,000-point grid (a trace skips
// the whole-query entry) is answered from the coordinator's task store
// without dispatching a shard. Its store hits decode into one slab of
// Metrics payloads, so the whole query stays far below one allocation per
// task; one MetricsWire per hit would add a thousand.
func TestDistributedPrefillAllocBudget(t *testing.T) {
	_, coord := distFleet(t, 2, dist.Options{})
	body := strings.TrimSuffix(grid1000Body, "}") + `,"trace":true}`
	postQuery(t, coord, body) // computes, distributes and stores the grid
	shards := dist.ShardsDispatchedTotal.Value()
	allocs := allocsWithoutGC(5, func() { postQuery(t, coord, body) })
	if d := dist.ShardsDispatchedTotal.Value() - shards; d != 0 {
		t.Fatalf("the stored grid dispatched %d shards, want the prefill path", d)
	}
	if allocs > prefillAllocBudget {
		t.Fatalf("a traced repeat of a stored 1000-point grid allocated %v, budget %d", allocs, prefillAllocBudget)
	}
	t.Logf("traced repeat of a stored distributed 1000-point grid: %v allocs", allocs)
}
