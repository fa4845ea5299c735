package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dense802154/internal/dist"
	"dense802154/internal/query"
	"dense802154/internal/service"
)

// taskLines renders tasks [from,to) of q as the /v2/tasks body a worker
// writes, one line per task, each line ending in '\n'.
func taskLines(t testing.TB, q query.Query, from, to int) [][]byte {
	t.Helper()
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	err = plan.ExecuteRange(context.Background(), 1, from, to, func(tr query.TaskResult, wallMS float64) error {
		b, err := (&dist.TaskLine{Index: tr.Index, WallMS: wallMS, Result: &tr}).AppendJSON(nil)
		lines = append(lines, append(b, '\n'))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// serveBody starts a worker stub whose /v2/tasks answers with body.
func serveBody(t *testing.T, body []byte) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// sendTo opens a shard stream against url through the production transport.
func sendTo(t *testing.T, url string) dist.LineStream {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	ls, err := (&dist.HTTPTransport{}).Send(ctx, url, dist.TaskRequest{Query: gridQuery(), From: 0, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return ls
}

// TestLineStreamTruncatedLine: a worker that writes k whole task lines, then
// half of the next and closes, yields exactly k lines through the real HTTP
// stream, then an error that is not io.EOF — the cut line never counts as
// delivered.
func TestLineStreamTruncatedLine(t *testing.T) {
	lines := taskLines(t, gridQuery(), 0, 6)
	const k = 3
	body := bytes.Join(lines[:k], nil)
	body = append(body, lines[k][:len(lines[k])/2]...)
	ls := sendTo(t, serveBody(t, body))
	for i := 0; i < k; i++ {
		l, err := ls.Next()
		if err != nil || l.Result == nil || l.Index != i {
			t.Fatalf("line %d: %+v, %v", i, l, err)
		}
	}
	if _, err := ls.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("after the cut line: err = %v, want a non-EOF error", err)
	}
}

// TestLineStreamRejectsBadLines: garbage and an over-long line end the
// stream with an error, never a panic or a hang; blank lines, CRLF endings
// and a last line missing only its newline are read as json.Decoder read
// them.
func TestLineStreamRejectsBadLines(t *testing.T) {
	lines := taskLines(t, gridQuery(), 0, 2)

	ls := sendTo(t, serveBody(t, append(append([]byte(nil), lines[0]...), "not json\n"...)))
	if _, err := ls.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Next(); err == nil {
		t.Fatal("garbage line decoded without error")
	}

	defer dist.SetMaxLineBytes(4096)()
	long := append(bytes.Repeat([]byte(" "), 64<<10), lines[0]...)
	ls = sendTo(t, serveBody(t, long))
	done := make(chan error, 1)
	go func() { _, err := ls.Next(); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("over-long line decoded without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("over-long line hung the stream")
	}

	var body bytes.Buffer
	body.WriteString("\n  \r\n")
	body.Write(bytes.TrimSuffix(lines[0], []byte("\n")))
	body.WriteString("\r\n\n")
	body.Write(bytes.TrimSuffix(lines[1], []byte("\n")))
	ls = dist.NewLineStream(io.NopCloser(&body), nil, 2)
	for i := 0; i < 2; i++ {
		if l, err := ls.Next(); err != nil || l.Index != i {
			t.Fatalf("line %d: %+v, %v", i, l, err)
		}
	}
	if _, err := ls.Next(); err != io.EOF {
		t.Fatalf("end of body: err = %v, want io.EOF", err)
	}
}

// TestDistributeRedispatchesOnlyTruncatedRemainder: a worker whose first
// response is cut mid-line after k lines is asked again for exactly
// [from+k, to), and the merged bytes still equal the local run.
func TestDistributeRedispatchesOnlyTruncatedRemainder(t *testing.T) {
	const k = 2
	real := service.NewServer(service.Config{Workers: 2})
	var mu sync.Mutex
	var ranges [][2]int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/tasks" {
			real.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req dist.TaskRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Error(err)
		}
		mu.Lock()
		ranges = append(ranges, [2]int{req.From, req.To})
		first := len(ranges) == 1
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		if !first {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		out := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
		w.Write(bytes.Join(out[:k], nil))
		w.Write(out[k][:len(out[k])/2])
	}))
	t.Cleanup(ts.Close)

	q := gridQuery()
	opts := fastOpts([]string{ts.URL}, nil)
	opts.ShardSize = 6
	before := snap()
	if got := distribute(t, dist.New(opts), q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after a truncated shard")
	}
	mu.Lock()
	defer mu.Unlock()
	if want := [][2]int{{0, 6}, {k, 6}}; len(ranges) != 2 || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("dispatched ranges %v, want %v", ranges, want)
	}
	if after := snap(); after.redispatch == before.redispatch {
		t.Fatal("truncation did not count a re-dispatch")
	}
}

// relabelTransport serves real shards but rewrites the label of the first
// result line for task index at — a worker whose plan has another shape.
type relabelTransport struct {
	dist.HTTPTransport
	at   int
	once sync.Once
}

func (rt *relabelTransport) Send(ctx context.Context, worker string, req dist.TaskRequest) (dist.LineStream, error) {
	ls, err := rt.HTTPTransport.Send(ctx, worker, req)
	if err != nil {
		return nil, err
	}
	return &relabelStream{LineStream: ls, rt: rt}, nil
}

type relabelStream struct {
	dist.LineStream
	rt *relabelTransport
}

func (s *relabelStream) Next() (dist.TaskLine, error) {
	l, err := s.LineStream.Next()
	if err == nil && l.Result != nil && l.Index == s.rt.at {
		s.rt.once.Do(func() { l.Result.Label = "grid[?]:loss=0,payload=0,bo=0" })
	}
	return l, err
}

// TestDistributeRejectsWrongLabel: a task line whose label is not the
// plan's label for that index fails its shard like an out-of-order line —
// counted as a worker failure and recomputed — and the merged bytes still
// equal the local run.
func TestDistributeRejectsWrongLabel(t *testing.T) {
	q := gridQuery()
	before := snap()
	c := dist.New(fastOpts(fleet(t, 2), &relabelTransport{at: 1}))
	if got := distribute(t, c, q); !bytes.Equal(got, localBytes(t, q)) {
		t.Fatal("bytes deviate after a mislabelled line")
	}
	after := snap()
	if after.failures == before.failures {
		t.Fatal("mislabelled line not counted as a worker failure")
	}
	if after.redispatch == before.redispatch && after.fallback == before.fallback {
		t.Fatal("mislabelled task was neither re-dispatched nor computed locally")
	}
}

// grid1000Query is the 1,000-point grid of the end-to-end dist-fanout
// workload under seed 7.
func grid1000Query() query.Query {
	seed := int64(7)
	from, to, points := query.Float(50), query.Float(90), 20
	bo0, bo1 := 6, 10
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &query.Axis{From: &from, To: &to, Points: &points},
		Payloads: &query.IntAxis{Values: []int{10, 20, 30, 40, 50, 60, 70, 80, 100, 120}},
		BOs:      &query.IntAxis{From: &bo0, To: &bo1},
	}
}

// TestLineStreamAllocBudget guards the coordinator's read side: the
// 1,000-line grid body plus its done line, through the production line
// stream as a flight reads it, costs a handful of per-shard allocations —
// not the four per line encoding/json spent.
func TestLineStreamAllocBudget(t *testing.T) {
	q := grid1000Query()
	plan, err := query.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	labels := plan.Labels()
	body := bytes.Join(taskLines(t, q, 0, len(labels)), nil)
	body = append(body, `{"done":true,"count":1000}`+"\n"...)
	var src bytes.Reader
	read := func() {
		src.Reset(body)
		ls := dist.NewLineStream(io.NopCloser(&src), labels, len(labels))
		for n := 0; ; n++ {
			l, err := ls.Next()
			if err != nil {
				t.Fatal(err)
			}
			if l.Done {
				if n != len(labels) {
					t.Fatalf("read %d task lines, want %d", n, len(labels))
				}
				return
			}
			if l.Result.Label != labels[l.Index] {
				t.Fatalf("line %d: label %q", l.Index, l.Result.Label)
			}
		}
	}
	read()
	allocs := testing.AllocsPerRun(5, read)
	if allocs > lineStreamAllocBudget {
		t.Fatalf("reading the 1000-line grid shard allocated %v, budget %d", allocs, lineStreamAllocBudget)
	}
	t.Logf("1000-line grid shard: %v allocs", allocs)
}

// TestLineStreamOwnsResults: results the line stream hands out stay intact
// while later lines are read, so the coordinator can keep the pointers. The
// shard is sized below its line count, so the reads span two result slabs.
func TestLineStreamOwnsResults(t *testing.T) {
	lines := taskLines(t, gridQuery(), 0, 6)
	plan, _ := query.Compile(gridQuery())
	labels := plan.Labels()
	ls := dist.NewLineStream(io.NopCloser(bytes.NewReader(bytes.Join(lines, nil))), labels, 4)
	var got []*query.TaskResult
	for {
		l, err := ls.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, l.Result)
	}
	for i, tr := range got {
		want, err := dist.DecodeTaskLine(bytes.TrimSpace(lines[i]))
		if err != nil || tr.Label != labels[i] || tr.Index != i || *tr.Metrics != *want.Result.Metrics {
			t.Fatalf("result %d changed after later reads: %+v", i, tr)
		}
	}
}

// TestHTTPTransportSharesPlanLabels: the plan labels the coordinator puts in
// the Send context reach the HTTP stream, so each decoded label is the
// plan's own string rather than a copy.
func TestHTTPTransportSharesPlanLabels(t *testing.T) {
	lines := taskLines(t, gridQuery(), 0, 6)
	plan, _ := query.Compile(gridQuery())
	labels := plan.Labels()
	url := serveBody(t, bytes.Join(lines, nil))
	ctx, cancel := context.WithTimeout(dist.WithPlanLabels(context.Background(), labels), 10*time.Second)
	defer cancel()
	ls, err := (&dist.HTTPTransport{}).Send(ctx, url, dist.TaskRequest{Query: gridQuery(), From: 0, To: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	for i := range lines {
		l, err := ls.Next()
		if err != nil {
			t.Fatal(err)
		}
		if l.Result.Label != labels[i] || unsafe.StringData(l.Result.Label) != unsafe.StringData(labels[i]) {
			t.Fatalf("line %d: label %q is not the plan's string", i, l.Result.Label)
		}
	}
}

// TestHTTPTransportSplicesQuery: under the coordinator's Send context every
// shard body carries the query encoded once, with the shard's range written
// after it, and is byte for byte TaskRequest.AppendJSON, which the worker's
// reader takes back to the same request. Without that context Send encodes
// the whole request itself, to the same bytes.
func TestHTTPTransportSplicesQuery(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		mu.Unlock()
		w.Write([]byte(`{"done":true}` + "\n"))
	}))
	t.Cleanup(ts.Close)
	q := gridQuery()
	q.Workers, q.Trace, q.Scenario = 3, true, "<&>"
	shardCtx := dist.WithShardQuery(context.Background(), q, nil)
	for i, c := range []struct {
		ctx context.Context
		req dist.TaskRequest
	}{
		{shardCtx, dist.TaskRequest{Query: q, From: 0, To: 3}},
		{shardCtx, dist.TaskRequest{Query: q, From: 3, To: 6, Workers: 2}},
		{context.Background(), dist.TaskRequest{Query: q, From: 2, To: 5}},
	} {
		ls, err := (&dist.HTTPTransport{}).Send(c.ctx, ts.URL, c.req)
		if err != nil {
			t.Fatal(err)
		}
		ls.Close()
		mu.Lock()
		got := bodies[len(bodies)-1]
		mu.Unlock()
		if want := c.req.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: body\n%s\nwant\n%s", i, got, want)
		}
		var back dist.TaskRequest
		if err := dist.DecodeTaskRequest(got, nil, &back); err != nil || !reflect.DeepEqual(back, c.req) {
			t.Fatalf("shard %d: body decodes to %+v (%v), want %+v", i, back, err, c.req)
		}
	}
}
