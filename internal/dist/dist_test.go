package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dense802154/internal/dist"
	"dense802154/internal/query"
	"dense802154/internal/service"
)

// fleet boots n in-process worker servers and returns their base URLs.
func fleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(service.NewServer(service.Config{Workers: 2}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// gridQuery is the standard multi-task workload of these tests: a 6-point
// product sweep, cheap per point.
func gridQuery() query.Query {
	seed := int64(3)
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &query.Axis{Values: []query.Float{55, 70, 85}},
		Payloads: &query.IntAxis{Values: []int{20, 100}},
	}
}

func replicasQuery() query.Query {
	return query.Query{
		Kind:     query.KindReplicas,
		Sim:      &query.SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)},
		Replicas: 6,
	}
}

func intPtr(v int) *int { return &v }

// localBytes is the ground truth every distributed run must reproduce.
func localBytes(t *testing.T, q query.Query) []byte {
	t.Helper()
	rs, err := query.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// distribute runs q through c and returns the encoded bytes.
func distribute(t *testing.T, c *dist.Coordinator, q query.Query) []byte {
	t.Helper()
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Distribute(context.Background(), q, plan, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fastOpts keeps retry/probe timing test-friendly; fault scenarios override
// what they need.
func fastOpts(workers []string, transport dist.Transport) dist.Options {
	return dist.Options{
		Workers:      workers,
		Transport:    transport,
		ShardSize:    2,
		RetryBase:    2 * time.Millisecond,
		RetryCap:     20 * time.Millisecond,
		ShardTimeout: 10 * time.Second,
		ReprobeAfter: 20 * time.Millisecond,
	}
}

type counterSnap struct {
	queries, redispatch, retries, straggler, fallback, failures, remote, local uint64
}

func snap() counterSnap {
	return counterSnap{
		queries:    dist.QueriesTotal.Value(),
		redispatch: dist.RedispatchTotal.Value(),
		retries:    dist.RetriesTotal.Value(),
		straggler:  dist.StragglerRedispatchTotal.Value(),
		fallback:   dist.LocalFallbackTotal.Value(),
		failures:   dist.WorkerFailuresTotal.Value(),
		remote:     dist.TasksRemoteTotal.Value(),
		local:      dist.TasksLocalTotal.Value(),
	}
}

func TestDistributeMatchesLocal(t *testing.T) {
	urls := fleet(t, 2)
	c := dist.New(fastOpts(urls, nil))
	for name, q := range map[string]query.Query{"grid": gridQuery(), "replicas": replicasQuery()} {
		want := localBytes(t, q)
		got := distribute(t, c, q)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: distributed bytes deviate from local run\n got %s\nwant %s", name, got, want)
		}
	}
}

func TestDistributeFleetSizeIdentity(t *testing.T) {
	// Workers=1 fleet and Workers=3 fleet must both match the local bytes:
	// distribution topology is a pure scheduling concern.
	q := gridQuery()
	want := localBytes(t, q)
	for _, n := range []int{1, 3} {
		c := dist.New(fastOpts(fleet(t, n), nil))
		if got := distribute(t, c, q); !bytes.Equal(got, want) {
			t.Fatalf("fleet of %d deviates from local bytes", n)
		}
	}
}

func TestDistributeYieldsPlanOrder(t *testing.T) {
	q := gridQuery()
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	c := dist.New(fastOpts(fleet(t, 2), nil))
	var order []int
	if _, err := c.Distribute(context.Background(), q, plan, 2, func(tr query.TaskResult) error {
		order = append(order, tr.Index)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(order) != plan.NumTasks() {
		t.Fatalf("yielded %d of %d", len(order), plan.NumTasks())
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("yield order %v not plan order", order)
		}
	}
}

func TestDistributeNonShardableRunsLocal(t *testing.T) {
	seed := int64(3)
	q := query.Query{Kind: query.KindEvaluate,
		Params: &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}}}
	want := localBytes(t, q)
	// A transport that fails every call proves no network touch happens.
	c := dist.New(fastOpts([]string{"http://127.0.0.1:1"}, downTransport{}))
	if got := distribute(t, c, q); !bytes.Equal(got, want) {
		t.Fatal("non-shardable query deviates from local run")
	}
}

// downTransport fails every call, as a fully unreachable fleet would.
type downTransport struct{}

func (downTransport) Send(context.Context, string, dist.TaskRequest) (dist.LineStream, error) {
	return nil, errors.New("worker down")
}
func (downTransport) Ready(context.Context, string) error {
	return errors.New("worker down")
}

// The four injected failure modes of the tentpole: each must leave the
// merged bytes identical to a local run and move the right counters.

func TestDistributeSurvivesWorkerKill(t *testing.T) {
	urls := fleet(t, 2)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[0], AtIndex: 1, Kind: dist.FaultKill})
	q := gridQuery()
	before := snap()
	c := dist.New(fastOpts(urls, ft))
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after worker kill")
	}
	after := snap()
	if after.redispatch == before.redispatch {
		t.Fatal("kill did not re-dispatch")
	}
	if after.failures == before.failures {
		t.Fatal("kill not counted as a worker failure")
	}
}

func TestDistributeSurvivesDispatchErrors(t *testing.T) {
	urls := fleet(t, 2)
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[1], AtIndex: -1, Kind: dist.FaultError, Times: 2})
	q := gridQuery()
	before := snap()
	c := dist.New(fastOpts(urls, ft))
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after dispatch errors")
	}
	if after := snap(); after.redispatch == before.redispatch {
		t.Fatal("dispatch errors did not re-dispatch")
	}
}

func TestDistributeSurvivesMidStreamDrop(t *testing.T) {
	urls := fleet(t, 2)
	// Drop each worker's stream once mid-shard: partial results must be
	// kept and only the remainders re-dispatched.
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[0], AtIndex: 1, Kind: dist.FaultDrop},
		dist.Fault{Worker: urls[1], AtIndex: 3, Kind: dist.FaultDrop})
	q := gridQuery()
	before := snap()
	c := dist.New(fastOpts(urls, ft))
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after mid-stream drops")
	}
	after := snap()
	if after.redispatch == before.redispatch {
		t.Fatal("drops did not re-dispatch")
	}
	if after.retries == before.retries {
		t.Fatal("re-dispatched ranges not counted as retries")
	}
}

func TestDistributeSpeculatesStragglers(t *testing.T) {
	urls := fleet(t, 2)
	// Worker 0 stalls for a long time before delivering its second line;
	// the coordinator must duplicate the rest of the shard on worker 1 and
	// still merge exactly one result per index.
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[0], AtIndex: 1, Kind: dist.FaultDelay, Delay: 2 * time.Second})
	q := gridQuery()
	opts := fastOpts(urls, ft)
	opts.StragglerMin = 30 * time.Millisecond
	opts.StragglerFactor = 1
	before := snap()
	c := dist.New(opts)
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate under straggler speculation")
	}
	if after := snap(); after.straggler == before.straggler {
		t.Fatal("straggler was not speculated")
	}
}

// TestDistributeOneShardPerWorker: at ShardSize 0 a balanced fleet gets one
// shard per worker and nothing more, since cheap tasks never justify a
// split.
func TestDistributeOneShardPerWorker(t *testing.T) {
	opts := fastOpts(fleet(t, 2), nil)
	opts.ShardSize = 0
	q := gridQuery()
	shards, splits := dist.ShardsDispatchedTotal.Value(), dist.ShardSplitsTotal.Value()
	if got := distribute(t, dist.New(opts), q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate at one shard per worker")
	}
	if d := dist.ShardsDispatchedTotal.Value() - shards; d != 2 {
		t.Errorf("two workers got %d shards, want 2", d)
	}
	if d := dist.ShardSplitsTotal.Value() - splits; d != 0 {
		t.Errorf("a balanced fleet split %d shards", d)
	}
}

// TestDistributeSplitsSlowShard: worker 0 stalls before the first line of
// its shard, so worker 1 runs out of work first and the coordinator must
// hand it the back half of worker 0's range. Worker 1 then stalls inside
// that back half while worker 0 completes its shrunk front half and streams
// on into the back half's tasks, which the coordinator must end without
// calling it a failure. A split is a clean hand-off: no failure, retry,
// eviction, speculation or local fallback, and the merged bytes equal a
// local run.
func TestDistributeSplitsSlowShard(t *testing.T) {
	urls := fleet(t, 2)
	q := replicasQuery()
	q.Replicas = 8
	// Worker 0 is dispatched first and gets tasks [0,4), worker 1 [4,8);
	// the split hands [2,4) to worker 1.
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[0], AtIndex: 0, Kind: dist.FaultDelay, Delay: 150 * time.Millisecond},
		dist.Fault{Worker: urls[1], AtIndex: 3, Kind: dist.FaultDelay, Delay: 300 * time.Millisecond})
	opts := fastOpts(urls, ft)
	opts.ShardSize = 0
	// Any measurable task time justifies a split, while speculation waits
	// far longer than a delayed line takes.
	opts.StragglerMin = time.Microsecond
	opts.StragglerFactor = 1e5
	before := snap()
	shards, splits, evicted := dist.ShardsDispatchedTotal.Value(), dist.ShardSplitsTotal.Value(), dist.WorkersEvicted.Value()
	if got := distribute(t, dist.New(opts), q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after a split")
	}
	after := snap()
	dSplits := dist.ShardSplitsTotal.Value() - splits
	if dSplits == 0 {
		t.Fatal("the slowed worker's shard was not split")
	}
	if d := dist.ShardsDispatchedTotal.Value() - shards; d != 2+dSplits {
		t.Errorf("dispatched %d shards for 2 initial shards and %d splits", d, dSplits)
	}
	if after.failures != before.failures || after.retries != before.retries || after.redispatch != before.redispatch {
		t.Errorf("a split counted as a failure: failures +%d, retries +%d, redispatches +%d",
			after.failures-before.failures, after.retries-before.retries, after.redispatch-before.redispatch)
	}
	if after.straggler != before.straggler || after.fallback != before.fallback || after.local != before.local {
		t.Errorf("speculation +%d, fallbacks +%d, local tasks +%d; want none",
			after.straggler-before.straggler, after.fallback-before.fallback, after.local-before.local)
	}
	if d := dist.WorkersEvicted.Value() - evicted; d != 0 {
		t.Errorf("%d workers evicted", d)
	}
}

func TestDistributeFleetLostFallsBackLocal(t *testing.T) {
	urls := fleet(t, 2)
	// Both workers admit fine but every dispatch fails: the coordinator
	// must evict the fleet and finish the query locally.
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[0], AtIndex: -1, Kind: dist.FaultError, Times: 100},
		dist.Fault{Worker: urls[1], AtIndex: -1, Kind: dist.FaultError, Times: 100})
	q := gridQuery()
	before := snap()
	c := dist.New(fastOpts(urls, ft))
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after local fallback")
	}
	after := snap()
	if after.fallback == before.fallback {
		t.Fatal("fleet loss did not count a local fallback")
	}
	if after.local == before.local {
		t.Fatal("no tasks were computed locally")
	}
}

func TestDistributeNoWorkersReadyRunsLocal(t *testing.T) {
	// Admission finds nobody: Distribute must still answer, locally.
	q := gridQuery()
	before := snap()
	c := dist.New(fastOpts([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, downTransport{}))
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate when no worker admits")
	}
	after := snap()
	if d := after.fallback - before.fallback; d != 1 {
		t.Errorf("empty fleet counted %d local fallbacks, want 1", d)
	}
	if d, n := after.local-before.local, uint64(6); d != n {
		t.Errorf("empty fleet computed %d tasks locally, want %d", d, n)
	}
	if after.remote != before.remote {
		t.Errorf("empty fleet accepted %d remote tasks", after.remote-before.remote)
	}
	if after.queries != before.queries {
		t.Error("a query with no admitted worker counted as distributed")
	}
}

// TestDistributeLocalFallbackHonorsGrant loses the whole fleet at its first
// dispatches, so every range falls back to local execution at once, and
// checks the fallback never computes more tasks at a time than the local
// worker grant allows: one local flight in the air, under the whole grant.
// The plan's store counts the tasks in flight, since each local task asks
// it first.
func TestDistributeLocalFallbackHonorsGrant(t *testing.T) {
	q := gridQuery()
	want := localBytes(t, q)
	for _, grant := range []int{1, 2} {
		plan, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		gauge := &inFlightStore{}
		plan.Store = gauge
		opts := fastOpts([]string{"http://w1", "http://w2"}, refusingTransport{})
		opts.ReprobeAfter = time.Minute
		rs, err := dist.New(opts).Distribute(context.Background(), q, plan, grant, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("grant %d: bytes deviate after local fallback", grant)
		}
		if gauge.peak > grant {
			t.Errorf("grant %d: %d local tasks ran at once", grant, gauge.peak)
		}
	}
}

// refusingTransport admits every worker and then fails every dispatch, as
// a fleet lost right after admission would.
type refusingTransport struct{}

func (refusingTransport) Send(context.Context, string, dist.TaskRequest) (dist.LineStream, error) {
	return nil, errors.New("dispatch refused")
}
func (refusingTransport) Ready(context.Context, string) error { return nil }

// inFlightStore is an always-missing task store that records the peak
// number of concurrent lookups; each lookup lingers so overlapping tasks
// overlap here.
type inFlightStore struct {
	mu        sync.Mutex
	cur, peak int
}

func (s *inFlightStore) GetTask(int) ([]byte, bool) {
	s.mu.Lock()
	s.cur++
	s.peak = max(s.peak, s.cur)
	s.mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	s.mu.Lock()
	s.cur--
	s.mu.Unlock()
	return nil, false
}

func (s *inFlightStore) PutTask(int, []byte) {}

// TestDistributeTraceMatchesLocal: a traced query names the same tasks and
// per-task seeds whether a coordinator or a local Execute ran it; only the
// measured wall times differ.
func TestDistributeTraceMatchesLocal(t *testing.T) {
	urls := fleet(t, 2)
	lifetimeQ := query.Query{
		Kind: query.KindLifetime,
		Sim:  &query.SimConfigWire{Nodes: intPtr(6)},
		Lifetime: &query.LifetimeWire{
			CapacityJ:        floatPtr(0.3),
			EpochSuperframes: intPtr(4),
			MaxEpochs:        intPtr(64),
		},
		Replicas: 3,
	}
	for name, q := range map[string]query.Query{"replicas": replicasQuery(), "lifetime": lifetimeQ, "grid": gridQuery()} {
		q.Trace = true
		local, err := query.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := dist.New(fastOpts(urls, nil)).Distribute(context.Background(), q, plan, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, got := local.Trace, rs.Trace
		if got == nil || want == nil {
			t.Fatalf("%s: trace missing (local %v, distributed %v)", name, want != nil, got != nil)
		}
		if got.Kind != want.Kind || got.Tasks != want.Tasks || len(got.Spans) != len(want.Spans) {
			t.Fatalf("%s: distributed trace %s/%d tasks/%d spans, local %s/%d/%d",
				name, got.Kind, got.Tasks, len(got.Spans), want.Kind, want.Tasks, len(want.Spans))
		}
		for i, w := range want.Spans {
			g := got.Spans[i]
			g.WallMS, w.WallMS = 0, 0
			if !reflect.DeepEqual(g, w) {
				gb, _ := json.Marshal(g)
				wb, _ := json.Marshal(w)
				t.Errorf("%s: span %d = %s, local %s", name, i, gb, wb)
			}
		}
		if name != "grid" && want.Spans[0].Seed == nil {
			t.Errorf("%s: local trace carries no seeds", name)
		}
	}
}

func floatPtr(v query.Float) *query.Float { return &v }

// scriptedTransport serves one scripted line sequence per Send, for
// protocol-level coordinator behavior no real worker exhibits.
type scriptedTransport struct{ lines []dist.TaskLine }

func (s scriptedTransport) Send(context.Context, string, dist.TaskRequest) (dist.LineStream, error) {
	return &scriptedStream{lines: s.lines}, nil
}
func (s scriptedTransport) Ready(context.Context, string) error { return nil }

type scriptedStream struct {
	lines []dist.TaskLine
	i     int
}

func (s *scriptedStream) Next() (dist.TaskLine, error) {
	if s.i >= len(s.lines) {
		return dist.TaskLine{}, io.EOF
	}
	l := s.lines[s.i]
	s.i++
	return l, nil
}
func (s *scriptedStream) Close() error { return nil }

func TestDistributeAbortsOnWorkerReportedError(t *testing.T) {
	// A worker-reported task error is deterministic: the coordinator must
	// abort the query with it instead of retrying elsewhere.
	q := gridQuery()
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	c := dist.New(fastOpts([]string{"http://w1"}, scriptedTransport{lines: []dist.TaskLine{
		{Error: "model exploded deterministically"},
	}}))
	_, err = c.Distribute(context.Background(), q, plan, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "model exploded deterministically") {
		t.Fatalf("err = %v, want the worker-reported error", err)
	}
}

func TestDistributeHonorsQueryTimeout(t *testing.T) {
	q := replicasQuery()
	q.Sim = &query.SimConfigWire{Nodes: intPtr(40), Superframes: intPtr(50)}
	q.Replicas = 40
	q.TimeoutMS = 1
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	// A transport that never answers: only the deadline can end this.
	c := dist.New(fastOpts([]string{"http://w1"}, hangingTransport{}))
	_, err = c.Distribute(context.Background(), q, plan, 2, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

type hangingTransport struct{}

func (hangingTransport) Send(ctx context.Context, _ string, _ dist.TaskRequest) (dist.LineStream, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (hangingTransport) Ready(ctx context.Context, _ string) error { return nil }

func TestDistributeWorkerReadmission(t *testing.T) {
	urls := fleet(t, 2)
	// Worker 0 dies at dispatch (evicted), then revives; with ReprobeAfter
	// tiny the readmission loop should bring it back within this query or,
	// at latest, leave the query unharmed.
	ft := dist.NewFaultTransport(&dist.HTTPTransport{},
		dist.Fault{Worker: urls[0], AtIndex: -1, Kind: dist.FaultKill})
	q := gridQuery()
	opts := fastOpts(urls, ft)
	opts.ReprobeAfter = 5 * time.Millisecond
	c := dist.New(opts)
	go func() {
		time.Sleep(30 * time.Millisecond)
		ft.Revive(urls[0])
	}()
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate across eviction and readmission")
	}
}
