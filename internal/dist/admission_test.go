package dist_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"dense802154/internal/dist"
	"dense802154/internal/query"
)

// The admission contract: the Coordinator keeps one fleet record across
// queries, probes only the workers that record does not vouch for, records
// every eviction fleet-wide, and leaves no goroutine behind a Distribute
// call.

// probeCounter wraps a Transport and counts Ready calls per worker.
type probeCounter struct {
	dist.Transport
	mu    sync.Mutex
	calls map[string]int
}

func countProbes(inner dist.Transport) *probeCounter {
	return &probeCounter{Transport: inner, calls: map[string]int{}}
}

func (p *probeCounter) Ready(ctx context.Context, worker string) error {
	p.mu.Lock()
	p.calls[worker]++
	p.mu.Unlock()
	return p.Transport.Ready(ctx, worker)
}

// take returns the calls counted since the last take, per worker.
func (p *probeCounter) take() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	got := p.calls
	p.calls = map[string]int{}
	return got
}

// localTransport serves every shard in process, synchronously: Send
// compiles the query and computes the range before it returns, so the
// transport itself starts no goroutine. Every worker is ready.
type localTransport struct{}

func (localTransport) Send(ctx context.Context, _ string, req dist.TaskRequest) (dist.LineStream, error) {
	plan, err := query.Compile(req.Query)
	if err != nil {
		return nil, err
	}
	var lines []dist.TaskLine
	err = plan.ExecuteRange(ctx, 1, req.From, req.To, func(tr query.TaskResult, wallMS float64) error {
		lines = append(lines, dist.TaskLine{Index: tr.Index, WallMS: wallMS, Result: &tr})
		return nil
	})
	if err != nil {
		return nil, err
	}
	lines = append(lines, dist.TaskLine{Done: true, Count: len(lines)})
	return &scriptedStream{lines: lines}, nil
}

func (localTransport) Ready(context.Context, string) error { return nil }

// admissionOpts keeps vouches fresh for the whole test and readmission
// loops idle, so every probe a query sends is an admission probe.
func admissionOpts(workers []string, transport dist.Transport) dist.Options {
	opts := fastOpts(workers, transport)
	opts.ReprobeAfter = time.Minute
	return opts
}

func TestAdmissionProbesOnlyUnvouchedWorkers(t *testing.T) {
	urls := fleet(t, 2)
	probes := countProbes(&dist.HTTPTransport{})
	c := dist.New(admissionOpts(urls, probes))
	q := gridQuery()
	want := localBytes(t, q)

	if got := distribute(t, c, q); !bytes.Equal(got, want) {
		t.Fatal("first query deviates from local bytes")
	}
	got := probes.take()
	for _, w := range urls {
		if got[w] != 1 {
			t.Errorf("fresh coordinator probed %s %d times, want 1", w, got[w])
		}
	}
	for i := 0; i < 2; i++ {
		if got := distribute(t, c, q); !bytes.Equal(got, want) {
			t.Fatal("vouched query deviates from local bytes")
		}
		if got := probes.take(); len(got) != 0 {
			t.Errorf("query %d on a healthy fleet probed %v, want nobody", i+2, got)
		}
	}
}

func TestAdmissionStaleVouchEvictsThenReprobes(t *testing.T) {
	urls := fleet(t, 2)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{})
	probes := countProbes(ft)
	c := dist.New(admissionOpts(urls, probes))
	q := gridQuery()
	want := localBytes(t, q)

	if got := distribute(t, c, q); !bytes.Equal(got, want) {
		t.Fatal("clean query deviates from local bytes")
	}
	probes.take()

	// Worker 0 dies after the clean query vouched for it: the next query
	// trusts the vouch, pays one failed dispatch and evicts it.
	ft.Inject(dist.Fault{Worker: urls[0], AtIndex: -1, Kind: dist.FaultKill})
	before := snap()
	if got := distribute(t, c, q); !bytes.Equal(got, want) {
		t.Fatal("bytes deviate after a stale vouch")
	}
	after := snap()
	if got := probes.take(); len(got) != 0 {
		t.Errorf("query on a vouched fleet probed %v, want nobody", got)
	}
	if after.failures != before.failures+1 {
		t.Errorf("stale vouch cost %d worker failures, want 1", after.failures-before.failures)
	}
	if after.redispatch == before.redispatch {
		t.Error("the failed dispatch was not re-dispatched")
	}

	// The eviction was recorded fleet-wide: the following query probes the
	// dead worker (and only it) instead of dispatching there.
	mid := snap()
	if got := distribute(t, c, q); !bytes.Equal(got, want) {
		t.Fatal("bytes deviate after the eviction")
	}
	got := probes.take()
	if got[urls[0]] != 1 || got[urls[1]] != 0 {
		t.Errorf("query after the eviction probed %v, want %s once", got, urls[0])
	}
	if end := snap(); end.redispatch != mid.redispatch {
		t.Error("the evicted worker was dispatched to again")
	}
}

// TestDistributeLeavesNoGoroutines: every goroutine a Distribute call
// starts — flights, admission probes, readmission loops, the local
// fallback — has ended when it returns, on a clean query, after an
// eviction with its readmission loop running, and after losing the whole
// fleet.
func TestDistributeLeavesNoGoroutines(t *testing.T) {
	q := gridQuery()
	want := localBytes(t, q)
	workers := []string{"http://w1", "http://w2"}
	opts := func(tr dist.Transport) dist.Options {
		o := fastOpts(workers, tr)
		o.ReprobeAfter = time.Millisecond // readmission loops keep probing
		return o
	}
	cases := []struct {
		name string
		c    func() *dist.Coordinator
	}{
		{"clean", func() *dist.Coordinator { return dist.New(opts(localTransport{})) }},
		{"eviction", func() *dist.Coordinator {
			return dist.New(opts(dist.NewFaultTransport(localTransport{},
				dist.Fault{Worker: workers[0], AtIndex: -1, Kind: dist.FaultKill})))
		}},
		{"fleet lost", func() *dist.Coordinator { return dist.New(opts(downTransport{})) }},
	}
	distribute(t, dist.New(opts(localTransport{})), q) // warm what the process keeps
	for _, tc := range cases {
		start := runtime.NumGoroutine()
		if got := distribute(t, tc.c(), q); !bytes.Equal(got, want) {
			t.Fatalf("%s: bytes deviate from local", tc.name)
		}
		// A goroutine released its WaitGroup slot just before it exits, so
		// the count may take a moment to settle; a leaked one never does.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > start {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Distribute returned, %d before\n%s",
				tc.name, n, start, buf[:runtime.Stack(buf, true)])
		}
	}
}

// gatedTransport holds every Send while a gate is set, announcing each one
// it holds on arrived (dropping the announcement when nobody has room for
// it), so a test can keep queries in flight.
type gatedTransport struct {
	dist.Transport
	mu      sync.Mutex
	gate    chan struct{} // nil ⇒ Sends pass straight through
	arrived chan struct{}
}

// hold sets a gate for the next n Sends and returns what they announce on
// and the function that lets them through.
func (g *gatedTransport) hold(n int) (arrived <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.arrived = make(chan struct{}), make(chan struct{}, n)
	gate := g.gate
	return g.arrived, func() { close(gate) }
}

func (g *gatedTransport) Send(ctx context.Context, worker string, req dist.TaskRequest) (dist.LineStream, error) {
	g.mu.Lock()
	gate, arrived := g.gate, g.arrived
	g.mu.Unlock()
	if gate != nil {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.Transport.Send(ctx, worker, req)
}

// TestFleetGaugesFollowRecord: wsn_dist_workers_ready/evicted report the
// coordinator's fleet record — not a per-query sum that reads 0 between
// queries and doubles while two overlap. The gauges are process-wide, so
// the test reads them as deltas over this coordinator's life.
func TestFleetGaugesFollowRecord(t *testing.T) {
	workers := []string{"http://w1", "http://w2"}
	ft := dist.NewFaultTransport(localTransport{})
	gate := &gatedTransport{Transport: ft}
	c := dist.New(admissionOpts(workers, gate))
	ready0, evicted0 := dist.WorkersReady.Value(), dist.WorkersEvicted.Value()
	check := func(when string, ready, evicted int64) {
		t.Helper()
		if r, e := dist.WorkersReady.Value()-ready0, dist.WorkersEvicted.Value()-evicted0; r != ready || e != evicted {
			t.Errorf("%s: gauges moved ready %+d evicted %+d, want %+d %+d", when, r, e, ready, evicted)
		}
	}
	check("fresh coordinator", 0, 0)
	q := gridQuery()
	want := localBytes(t, q)
	distribute(t, c, q)
	check("after a query", 2, 0)

	// Two queries in flight at once, each holding a shard on both workers.
	arrived, release := gate.hold(4)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := query.Compile(q)
			if err != nil {
				t.Error(err)
				return
			}
			rs, err := c.Distribute(context.Background(), q, plan, 2, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if got, err := rs.Encode(); err != nil || !bytes.Equal(got, want) {
				t.Error("concurrent query deviates from local bytes")
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-arrived
	}
	check("two queries in flight", 2, 0)
	release()
	wg.Wait()
	check("after two concurrent queries", 2, 0)

	ft.Inject(dist.Fault{Worker: workers[0], AtIndex: -1, Kind: dist.FaultKill})
	if got := distribute(t, c, q); !bytes.Equal(got, want) {
		t.Fatal("bytes deviate after the eviction")
	}
	check("after an eviction", 1, 1)
}
