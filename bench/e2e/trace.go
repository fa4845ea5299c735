package main

import (
	"cmp"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dense802154/internal/contention"
	"dense802154/internal/dist"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

// span is one traced interval as written to trace-<workload>.json. Layer
// spans are recorded one by one; the many task-level intervals under a span
// (engine tasks, per-task store calls, stream line writes, dist shards) are
// folded into one span per name and parent, with N intervals covering
// BusyUS of the folded range.
type span struct {
	Req    int     `json:"req"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	N      int     `json:"n,omitempty"`
	BusyUS float64 `json:"busy_us,omitempty"`
}

// interval is a task-level interval under the innermost open span.
type interval struct {
	name       string
	parent     int
	start, end time.Duration
}

// shardTiming is one dist shard as seen through the timing transport.
type shardTiming struct {
	sent, first, last time.Duration
	lines             int
	workerMS          float64
}

// recorder collects the spans of one traced request. A nil *recorder records
// nothing, which is how untraced requests run the same pipeline code.
// Layer spans are opened and closed by the request goroutine; intervals and
// shard timings also arrive from engine and dist goroutines, hence the lock.
type recorder struct {
	base time.Time
	req  int

	mu         sync.Mutex
	spans      []span
	open       []int
	intervals  []interval
	getStart   map[int]time.Duration // first store lookup of each plan task
	shards     []*shardTiming
	firstYield time.Duration
}

func newRecorder(base time.Time, req int) *recorder {
	return &recorder{base: base, req: req, getStart: map[int]time.Duration{}, firstYield: -1}
}

func (r *recorder) now() time.Duration { return time.Since(r.base) }

// mark is now() for the yield path, which also notes the first yield.
func (r *recorder) mark() time.Duration {
	if r == nil {
		return 0
	}
	t := r.now()
	if r.firstYield < 0 {
		r.firstYield = t
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// begin opens a layer span under the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: us(t)})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = us(t)
	r.open = r.open[:len(r.open)-1]
}

// interval records a task-level interval under the innermost open span (the
// root once everything is closed).
func (r *recorder) interval(name string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.intervals = append(r.intervals, interval{name: name, parent: parent, start: start, end: end})
}

// taskSpans records the plan trace's task spans under span parent. Each
// task's span starts at its first store lookup: Plan.Execute starts the
// task's clock just before that lookup.
func (r *recorder) taskSpans(parent int, tr *query.PlanTraceWire) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range tr.Spans {
		if start, ok := r.getStart[s.Index]; ok {
			end := start + time.Duration(float64(s.WallMS)*1e6)
			r.intervals = append(r.intervals, interval{name: "engine.task", parent: parent, start: start, end: end})
		}
	}
}

// ---- timing wrappers around the store and the dist transport ----

// timedStore wraps the result store for the traced run: the per-task views
// it hands out time every GetTask and PutTask into the current recorder.
type timedStore struct {
	st  *store.Store
	rec atomic.Pointer[recorder] // the request being replayed; nil when untraced
}

// Tasks implements dist.Store and is what the pipeline attaches to plans.
func (t *timedStore) Tasks(q query.Query) query.TaskStore {
	v := t.st.Tasks(q)
	rec := t.rec.Load()
	if rec == nil || v == nil {
		return v
	}
	return &timedView{inner: v, rec: rec}
}

type timedView struct {
	inner query.TaskStore
	rec   *recorder
}

func (v *timedView) GetTask(i int) ([]byte, bool) {
	t0 := v.rec.now()
	b, ok := v.inner.GetTask(i)
	t1 := v.rec.now()
	v.rec.mu.Lock()
	if _, seen := v.rec.getStart[i]; !seen {
		v.rec.getStart[i] = t0
	}
	v.rec.mu.Unlock()
	v.rec.interval("store.get_task", t0, t1)
	return b, ok
}

func (v *timedView) PutTask(i int, b []byte) {
	t0 := v.rec.now()
	v.inner.PutTask(i, b)
	v.rec.interval("store.put_task", t0, v.rec.now())
}

// timedTransport wraps dist.HTTPTransport: each shard's send time, line
// arrivals and worker-reported task wall times go to the current recorder.
// Readiness probes pass through.
type timedTransport struct {
	dist.Transport
	rec atomic.Pointer[recorder]
}

func (t *timedTransport) Send(ctx context.Context, worker string, req dist.TaskRequest) (dist.LineStream, error) {
	rec := t.rec.Load()
	if rec == nil {
		return t.Transport.Send(ctx, worker, req)
	}
	sh := &shardTiming{sent: rec.now(), first: -1}
	ls, err := t.Transport.Send(ctx, worker, req)
	if err != nil {
		return nil, err
	}
	rec.mu.Lock()
	rec.shards = append(rec.shards, sh)
	rec.mu.Unlock()
	return &timedStream{LineStream: ls, rec: rec, sh: sh}, nil
}

// timedStream times a shard's task lines; Close passes through.
type timedStream struct {
	dist.LineStream
	rec *recorder
	sh  *shardTiming
}

func (s *timedStream) Next() (dist.TaskLine, error) {
	line, err := s.LineStream.Next()
	if err != nil || line.Result == nil {
		return line, err
	}
	t := s.rec.now()
	s.rec.mu.Lock()
	if s.sh.first < 0 {
		s.sh.first = t
	}
	s.sh.last = t
	s.sh.lines++
	s.sh.workerMS += line.WallMS
	s.rec.mu.Unlock()
	return line, nil
}

// ---- derivation ----

// coverage is the length of the union of intervals clipped to [lo, hi].
func coverage(iv [][2]float64, lo, hi float64) float64 {
	slices.SortFunc(iv, func(a, b [2]float64) int { return cmp.Compare(a[0], b[0]) })
	var total, cur float64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// reqTimes are the layer times of one traced request, in milliseconds.
type reqTimes struct {
	wall, unattributed   float64
	decode, compile, key float64
	getResult, putResult float64
	executeSelf          float64
	encode, taskPut      float64
	kernel, firstYield   float64
	executed             bool
	distSend, distGap    []float64
	distWorker           []float64
	distMerge            float64
	distShards           int
}

// derive folds the recorder into per-layer times and the spans written to
// the trace file.
func (r *recorder) derive() (reqTimes, []span) {
	r.mu.Lock() // late dist stream goroutines may still report
	defer r.mu.Unlock()
	var t reqTimes
	root := r.spans[0]
	t.wall = (root.End - root.Start) / 1e3

	execID := -1
	for _, s := range r.spans {
		if s.Name == "query.execute" {
			execID = s.ID
		}
	}
	var lastLine time.Duration
	for _, sh := range r.shards {
		if sh.lines == 0 {
			continue
		}
		r.intervals = append(r.intervals, interval{name: "dist.shard", parent: execID, start: sh.sent, end: sh.last})
		t.distShards++
		t.distSend = append(t.distSend, float64(sh.first-sh.sent)/1e6)
		if sh.lines > 1 {
			t.distGap = append(t.distGap, float64(sh.last-sh.first)/1e6/float64(sh.lines-1))
		}
		t.distWorker = append(t.distWorker, sh.workerMS/float64(sh.lines))
		lastLine = max(lastLine, sh.last)
	}
	if t.distShards > 0 && execID >= 0 {
		t.distMerge = (r.spans[execID].End - us(lastLine)) / 1e3
	}

	byParent := map[int][][2]float64{}
	for _, c := range r.spans[1:] {
		byParent[c.Parent] = append(byParent[c.Parent], [2]float64{c.Start, c.End})
	}
	type foldKey struct {
		name   string
		parent int
	}
	folded := map[foldKey][][2]float64{}
	var order []foldKey
	for _, iv := range r.intervals {
		k := foldKey{iv.name, iv.parent}
		if _, ok := folded[k]; !ok {
			order = append(order, k)
		}
		x := [2]float64{us(iv.start), us(iv.end)}
		folded[k] = append(folded[k], x)
		byParent[iv.parent] = append(byParent[iv.parent], x)
	}
	t.unattributed = (root.End - root.Start - coverage(byParent[root.ID], root.Start, root.End)) / 1e3

	for _, s := range r.spans[1:] {
		d := (s.End - s.Start) / 1e3
		switch s.Name {
		case "query.decode":
			t.decode += d
		case "query.compile":
			t.compile += d
		case "store.key", "store.tasks":
			t.key += d
		case "store.get_result":
			t.getResult += d
		case "store.put_result":
			t.putResult += d
		case "query.encode":
			t.encode += d
		case "query.execute":
			t.executed = true
			t.executeSelf = (s.End - s.Start - coverage(byParent[s.ID], s.Start, s.End)) / 1e3
			for k, iv := range folded {
				if k.parent == s.ID && (k.name == "engine.task" || k.name == "dist.shard") {
					t.kernel = coverage(iv, s.Start, s.End) / 1e3
				}
			}
		}
	}
	for k, iv := range folded {
		if k.name == "store.put_task" {
			for _, x := range iv {
				t.taskPut += (x[1] - x[0]) / 1e3
			}
		}
	}
	// A non-streamed request yields nothing; its first result is ready when
	// the first task (or dist task line) completes.
	first := us(r.firstYield)
	if r.firstYield < 0 {
		first = math.Inf(1)
		for _, iv := range r.intervals {
			if iv.name == "engine.task" {
				first = min(first, us(iv.end))
			}
		}
		for _, sh := range r.shards {
			if sh.lines > 0 {
				first = min(first, us(sh.first))
			}
		}
	}
	if !math.IsInf(first, 1) {
		t.firstYield = (first - root.Start) / 1e3
	}
	out := append([]span(nil), r.spans...)
	for _, k := range order {
		iv := folded[k]
		s := span{Req: r.req, ID: len(out), Parent: k.parent, Name: k.name, Start: iv[0][0], End: iv[0][1], N: len(iv)}
		for _, x := range iv {
			s.Start = min(s.Start, x[0])
			s.End = max(s.End, x[1])
		}
		s.BusyUS = coverage(iv, s.Start, s.End)
		out = append(out, s)
	}
	return t, out
}

// ---- the traced run ----

// traceResult is what the traced replay measured.
type traceResult struct {
	traced         []reqTimes
	untracedWallMS []float64
	tracedWallMS   []float64
	spans          []span
	requests       int
}

// keepSpans bounds how many traced requests are written to the trace file;
// every traced request still feeds the derived layer metrics.
const keepSpans = 256

// replay runs the first n requests of the workload's stream through the
// in-process pipeline, alternating spans on (even indexes) and off, until n
// requests or the time budget are used up. Each replayed request the window
// byte-checked must come back with the bytes the server sent; a mismatch
// fails that check, so the replay cannot drift from the handlers unseen.
func replay(p *pipeline, w workload, seed int64, n int, budget time.Duration, checks []*sampled) (*traceResult, error) {
	byIndex := map[int]*sampled{}
	for _, c := range checks {
		byIndex[c.index] = c
	}
	contention.ResetCache() // the correctness check warmed it with window requests
	for _, req := range w.warmup(seed) {
		if _, err := p.serve(req.body, w.stream, nil); err != nil {
			return nil, err
		}
	}
	next := w.requests(seed)
	res := &traceResult{}
	base := time.Now()
	for i := 0; i < n && time.Since(base) < budget; i++ {
		req := next(i)
		var rec *recorder
		if i%2 == 0 {
			rec = newRecorder(base, i)
		}
		p.setRecorder(rec)
		t0 := time.Now()
		out, err := p.serve(req.body, w.stream, rec)
		if err != nil {
			return nil, err
		}
		wall := float64(time.Since(t0)) / 1e6
		res.requests++
		if c, ok := byIndex[i]; ok && c.failure == "" {
			if d := digest(out, w.stream); !sameDigest(c, &d) {
				c.failure = "traced replay bytes differ from the server's"
			}
		}
		if rec == nil {
			res.untracedWallMS = append(res.untracedWallMS, wall)
			continue
		}
		res.tracedWallMS = append(res.tracedWallMS, wall)
		t, spans := rec.derive()
		res.traced = append(res.traced, t)
		if len(res.traced) <= keepSpans {
			res.spans = append(res.spans, spans...)
		}
	}
	p.setRecorder(nil)
	return res, nil
}

// writeTrace writes the kept spans of one workload's traced run.
func writeTrace(path, name string, seed int64, tr *traceResult) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Requests int    `json:"requests"`
		Traced   int    `json:"traced"`
		Written  int    `json:"written"`
		Spans    []span `json:"spans"`
	}{name, seed, tr.requests, len(tr.traced), min(len(tr.traced), keepSpans), tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
