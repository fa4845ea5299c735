package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dense802154/internal/dist"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

// grid1000Body is the 1,000-point grid of the end-to-end dist-fanout
// workload under seed 7 (20 losses × 10 payloads × 5 beacon orders).
const grid1000Body = `{"kind":"grid","params":{"contention":{"superframes":8,"seed":7}},` +
	`"losses":{"from":50,"to":90,"points":20},` +
	`"payloads":{"values":[10,20,30,40,50,60,70,80,100,120]},"bos":{"from":6,"to":10}}`

// recordingWriter is an http.ResponseWriter and http.Flusher that keeps
// the body and counts sends. Its fields are unsynchronized on purpose: a
// write from the flush timer that bypasses the line writer's mutex is a data
// race the race detector reports. Once returned is set, any call counts as
// late. failAt, when positive, fails that Write call (1-based).
type recordingWriter struct {
	header   http.Header
	body     bytes.Buffer
	writes   int
	flushes  int
	failAt   int
	returned atomic.Bool
	late     atomic.Int32
}

func newRecordingWriter() *recordingWriter { return &recordingWriter{header: http.Header{}} }

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     { w.touch() }
func (w *recordingWriter) Write(p []byte) (int, error) {
	w.touch()
	w.writes++
	if w.writes == w.failAt {
		return 0, errors.New("write tcp: broken pipe")
	}
	return w.body.Write(p)
}
func (w *recordingWriter) Flush() { w.touch(); w.flushes++ }

func (w *recordingWriter) touch() {
	if w.returned.Load() {
		w.late.Add(1)
	}
}

// serve runs one request through app on w and marks w returned afterwards.
func (w *recordingWriter) serve(app http.Handler, path, body string) {
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	app.ServeHTTP(w, r)
	w.returned.Store(true)
}

// mustQuery decodes a query body.
func mustQuery(t *testing.T, body string) query.Query {
	t.Helper()
	var q query.Query
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	return q
}

// rawLine appends s to the writer's buffer, as the record appenders do.
func rawLine(lw *lineWriter, s string) []byte { return append(lw.buf[:0], s...) }

// TestLineWriterFirstLineImmediate: the first line of a stream reaches the
// client before the handler writes the second.
func TestLineWriterFirstLineImmediate(t *testing.T) {
	var second atomic.Bool
	read := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lw := newLineWriter(w)
		defer lw.close()
		_ = lw.write(rawLine(lw, `{"n":1}`))
		select {
		case <-read:
		case <-time.After(5 * time.Second):
		}
		second.Store(true)
		_ = lw.write(rawLine(lw, `{"n":2}`))
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || line != "{\"n\":1}\n" {
		t.Fatalf("first line %q, %v", line, err)
	}
	if second.Load() {
		t.Fatal("the first line arrived only after the second was written")
	}
	close(read)
}

// TestLineWriterSilenceFlushesWithinWindow: a line written right behind
// another, with nothing after it, reaches the client within flushWindow
// (plus scheduling slack) instead of waiting for more lines or the end.
func TestLineWriterSilenceFlushesWithinWindow(t *testing.T) {
	const slack = 250 * time.Millisecond
	wrote := make(chan time.Time, 1)
	read := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lw := newLineWriter(w)
		defer lw.close()
		_ = lw.write(rawLine(lw, `{"n":1}`))
		wrote <- time.Now()
		_ = lw.write(rawLine(lw, `{"n":2}`))
		select {
		case <-read:
		case <-time.After(5 * time.Second):
		}
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer close(read)
	br := bufio.NewReader(resp.Body)
	for n := 1; n <= 2; n++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
	}
	if late := time.Since(<-wrote); late > flushWindow+slack {
		t.Fatalf("the second line arrived %v after it was written, window %v", late, flushWindow)
	}
}

// TestLineWriterTimerErrorSurfaces: a send that fails in the timer
// goroutine is kept, and the next write returns it, so handleTasks still
// reports it as a stream-write (transport) failure.
func TestLineWriterTimerErrorSurfaces(t *testing.T) {
	w := newRecordingWriter()
	w.failAt = 2
	lw := newLineWriter(w)
	defer lw.close()
	if err := lw.write(rawLine(lw, `{"n":1}`)); err != nil {
		t.Fatalf("first line: %v", err)
	}
	// The second line waits for the timer, unless the first send took a
	// whole window; then it goes out, and fails, at once.
	err := lw.write(rawLine(lw, `{"n":2}`))
	if err == nil {
		time.Sleep(20 * flushWindow) // the timer sends the second line and fails
		err = lw.write(rawLine(lw, `{"n":3}`))
	}
	if err == nil {
		t.Fatal("the failed send of the second line did not surface on the next write")
	}
}

// failAfterDistributor yields n results as fast as it can, then fails: the
// stream's terminal error record follows lines still pending in the writer.
type failAfterDistributor struct{ n int }

func (d failAfterDistributor) Distribute(_ context.Context, _ query.Query, plan *query.Plan, _ int, yield func(query.TaskResult) error) (*query.ResultSet, error) {
	for i := 0; i < d.n; i++ {
		if err := yield(query.TaskResult{Index: i, Label: plan.Labels()[i], Metrics: &query.MetricsWire{}}); err != nil {
			return nil, err
		}
	}
	return nil, errors.New("worker fleet exploded")
}

// ndjsonLines splits an NDJSON body into its lines.
func ndjsonLines(t *testing.T, body []byte) []string {
	t.Helper()
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("body does not end in a complete line: %q", body)
	}
	return strings.Split(string(body[:len(body)-1]), "\n")
}

// TestQueryStreamErrorAfterPendingLines: the terminal error record of
// /v2/query/stream goes through the line writer, so it cannot overtake the
// task lines still pending there.
func TestQueryStreamErrorAfterPendingLines(t *testing.T) {
	const n = 40
	app := NewServer(Config{Workers: 1, Distributor: failAfterDistributor{n: n}})
	w := newRecordingWriter()
	w.serve(app, "/v2/query/stream", `{"kind":"grid","losses":{"from":50,"to":90,"points":40}}`)
	lines := ndjsonLines(t, w.body.Bytes())
	if len(lines) != n+1 {
		t.Fatalf("got %d lines, want %d task lines and the error record", len(lines), n+1)
	}
	for i, l := range lines[:n] {
		var tr query.TaskResult
		if err := json.Unmarshal([]byte(l), &tr); err != nil || tr.Index != i {
			t.Fatalf("line %d = %q, want task %d", i, l, i)
		}
	}
	var terminal queryStreamErrorLine
	if err := json.Unmarshal([]byte(lines[n]), &terminal); err != nil || terminal.Done || !strings.Contains(terminal.Error.Message, "exploded") {
		t.Fatalf("last line %q is not the error record", lines[n])
	}
	if w.flushes >= n {
		t.Fatalf("%d flushes for %d lines written back to back: nothing was coalesced", w.flushes, n+1)
	}
}

// TestTasksErrorLineAfterPendingLines: handleTasks' terminal error line is
// written through the same writer as its task lines, behind those still
// pending. Compile validates every point of a multi-task plan, so no query
// makes a task fail mid-range; the test writes the records handleTasks
// writes.
func TestTasksErrorLineAfterPendingLines(t *testing.T) {
	const n = 40
	w := newRecordingWriter()
	lw := newLineWriter(w)
	for i := 0; i < n; i++ {
		if err := lw.taskLine(&dist.TaskLine{Index: i, Result: &query.TaskResult{Index: i, Metrics: &query.MetricsWire{}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.taskLine(&dist.TaskLine{Error: "model exploded"}); err != nil {
		t.Fatal(err)
	}
	lw.close()
	w.returned.Store(true)
	lines := ndjsonLines(t, w.body.Bytes())
	if len(lines) != n+1 {
		t.Fatalf("got %d lines, want %d", len(lines), n+1)
	}
	for i, l := range lines {
		tl, err := dist.DecodeTaskLine([]byte(l))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if i < n && tl.Index != i || i == n && tl.Error != "model exploded" {
			t.Fatalf("line %d = %q out of order", i, l)
		}
	}
	time.Sleep(5 * flushWindow)
	if late := w.late.Load(); late != 0 {
		t.Fatalf("%d ResponseWriter calls after close", late)
	}
}

// TestLineWriterQuietAfterReturn: no route's line writer touches the
// ResponseWriter after its handler returned, on success, on a failed write
// and on an early error; the recording writer's unsynchronized fields make
// any timer-side access outside the writer's mutex a reported race.
func TestLineWriterQuietAfterReturn(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app := NewServer(Config{Workers: 2, Store: st})
	failing := NewServer(Config{Workers: 1, Distributor: failAfterDistributor{n: 30}})
	tasks := `{"query":` + storeGridBody + `,"from":0,"to":6,"workers":1}`
	batch := `{"params":[{"contention":{"superframes":8}},{"payload_bytes":20,"contention":{"superframes":8}},{"payload_bytes":60,"contention":{"superframes":8}}],"stream":true}`
	for _, c := range []struct {
		name       string
		app        http.Handler
		path, body string
		failAt     int
	}{
		{"query stream", app, "/v2/query/stream", storeGridBody, 0},
		{"query stream replay", app, "/v2/query/stream", storeGridBody, 0},
		{"query stream error", failing, "/v2/query/stream", `{"kind":"grid","losses":{"from":50,"to":90,"points":30}}`, 0},
		{"tasks", app, "/v2/tasks", tasks, 0},
		{"tasks failed write", app, "/v2/tasks", tasks, 2},
		{"v1 batch", app, "/v1/batch", batch, 0},
	} {
		w := newRecordingWriter()
		w.failAt = c.failAt
		w.serve(c.app, c.path, c.body)
		time.Sleep(5 * flushWindow)
		if late := w.late.Load(); late != 0 {
			t.Errorf("%s: %d ResponseWriter calls after the handler returned", c.name, late)
		}
		if c.failAt == 0 && !bytes.HasSuffix(w.body.Bytes(), []byte("}\n")) {
			t.Errorf("%s: body does not end in a complete record: %q", c.name, w.body.Bytes())
		}
	}
}

// TestTaskShardFlushBound: a store-warmed worker serving a 1,000-line grid
// shard flushes at most once per flushBytes of body, once per flushWindow
// of elapsed time, plus the first line and the terminal send — not once per
// line.
func TestTaskShardFlushBound(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app := NewServer(Config{Workers: 2, Store: st})
	body := `{"query":` + grid1000Body + `,"from":0,"to":1000}`
	newRecordingWriter().serve(app, "/v2/tasks", body) // warm the store
	w := newRecordingWriter()
	start := time.Now()
	w.serve(app, "/v2/tasks", body)
	elapsed := time.Since(start)
	lines := ndjsonLines(t, w.body.Bytes())
	if len(lines) != 1001 || lines[1000] != `{"done":true,"count":1000}` {
		t.Fatalf("got %d lines ending %q", len(lines), lines[len(lines)-1])
	}
	bound := int(math.Ceil(float64(w.body.Len())/flushBytes)) + int(elapsed/flushWindow) + 2
	if w.flushes > bound {
		t.Fatalf("%d flushes for %d bytes in %v, bound %d", w.flushes, w.body.Len(), elapsed, bound)
	}
	t.Logf("%d flushes for %d bytes in %v (bound %d)", w.flushes, w.body.Len(), elapsed, bound)
}

// TestTaskShardAllocBudget guards the worker's write side end to end: a
// store-warmed worker serves the 1,000-line grid shard over HTTP and the
// coordinator's line stream reads it. The whole exchange — request, plan
// compile, store hits, lines, chunks, read — stays below one allocation
// per line, which a per-line flush (one boxed chunk length each) or any
// other per-line allocation on either side breaks.
func TestTaskShardAllocBudget(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Workers: 2, Store: st})
	plan, err := query.Compile(mustQuery(t, grid1000Body))
	if err != nil {
		t.Fatal(err)
	}
	labels := plan.Labels()
	body := []byte(`{"query":` + grid1000Body + `,"from":0,"to":1000,"workers":2}`)
	var src bytes.Reader
	read := func() {
		src.Reset(body)
		resp, err := http.Post(ts.URL+"/v2/tasks", "application/json", &src)
		if err != nil {
			t.Fatal(err)
		}
		ls := dist.NewLineStream(resp.Body, labels, len(labels))
		defer ls.Close()
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
		}
	}
	read() // warm the store and the connection
	allocs := allocsWithoutGC(5, read)
	if allocs > taskShardAllocBudget {
		t.Fatalf("serving and reading the 1000-line grid shard allocated %v, budget %d", allocs, taskShardAllocBudget)
	}
	t.Logf("1000-line grid shard over HTTP: %v allocs", allocs)
}
