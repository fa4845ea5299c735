package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"dense802154/internal/query"
	"dense802154/internal/store"
)

// ---- POST /v2/query, POST /v2/query/stream ----
//
// The versioned unified-query surface: one declarative request type
// (internal/query.Query) covers everything the per-endpoint v1 routes do.
// The non-streaming form answers with the byte-stable ResultSet encoding;
// the streaming form emits NDJSON — one TaskResult per line in plan order,
// then one summary line. Lines are coalesced into few HTTP chunks, the
// first sent at once and none held back longer than flushWindow (see
// lineWriter).
// Backpressure is the same worker-token limiter the v1 routes share: a
// query acquires tokens before computing, so any number of v2 clients
// shares the server budget.

// decodeQuery parses and compiles the request body; errors are rendered as
// structured 400s.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (query.Query, *query.Plan, bool) {
	var q query.Query
	if !decodeQueryBody(w, r, &q) {
		return query.Query{}, nil, false
	}
	plan, err := query.Compile(q)
	if err != nil {
		writeCompileError(w, err)
		return query.Query{}, nil, false
	}
	return q, plan, true
}

// writeCompileError renders a query.Compile failure as a structured 400.
func writeCompileError(w http.ResponseWriter, err error) {
	var aerr *Error
	if errors.As(err, &aerr) {
		writeValidationError(w, aerr)
	} else {
		writeError(w, http.StatusBadRequest, err.Error(), "")
	}
}

// countQuery records an accepted v2 query of the given kind and task
// count in the per-kind and task-volume counters.
func (s *Server) countQuery(kind query.Kind, tasks int) {
	s.queryKinds.With(string(kind)).Inc()
	s.queryTasks.Add(uint64(tasks))
}

// storeKey derives the store key of q, once per request: both the
// whole-query entry and the per-task view are addressed by it. ok is false
// when no store is configured or q has no canonical form (a decoded v2
// query always has one: Direct is not part of the wire form).
func (s *Server) storeKey(q query.Query) (store.Key, bool) {
	if s.cfg.Store == nil {
		return store.Key{}, false
	}
	return store.KeyFor(q)
}

// attachStore wires the per-task store view of key, sized for the plan's
// tasks [from, to) that this request computes, into a compiled plan, so
// execution reuses stored tasks and persists computed ones. A no-op unless
// keyed.
func (s *Server) attachStore(plan *query.Plan, key store.Key, keyed bool, from, to int) {
	if keyed {
		plan.Store = s.cfg.Store.TasksAt(key, from, to)
	}
}

// execQuery runs a compiled plan through the configured Distributor when one
// exists (coordinator mode), locally otherwise.
func (s *Server) execQuery(ctx context.Context, q query.Query, plan *query.Plan, workers int, yield func(query.TaskResult) error) (*query.ResultSet, error) {
	if s.cfg.Distributor != nil {
		return s.cfg.Distributor.Distribute(ctx, q, plan, workers, yield)
	}
	return plan.Execute(ctx, workers, yield)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q query.Query
	if !decodeQueryBody(w, r, &q) {
		return
	}
	// A whole-query store hit is served before anything is compiled or
	// any worker token is taken: the stored bytes are the exact bytes a
	// previous identical query answered with, so the hit path compiles
	// nothing and executes nothing. Only a query that compiled is ever
	// stored, and the key drops nothing but version, workers, trace and
	// timeout_ms, so the shape check of those fields is all a hit still
	// needs; its task count comes from the query itself.
	// Traces carry measured wall times, which are never part of result
	// bytes, so a traced query bypasses the whole-query entry; its per-task
	// results still flow through the plan's store, which holds no trace
	// data.
	if aerr := q.ValidateShape(); aerr != nil {
		writeValidationError(w, aerr)
		return
	}
	key, keyed := s.storeKey(q)
	cacheable := keyed && !q.Trace
	if cacheable {
		if body, ok := s.cfg.Store.GetResult(key); ok {
			s.countQuery(q.Kind, q.NumTasks())
			writeJSONBytes(w, body)
			return
		}
	}
	plan, err := query.Compile(q)
	if err != nil {
		writeCompileError(w, err)
		return
	}
	s.countQuery(plan.Kind, plan.NumTasks())
	s.attachStore(plan, key, keyed, 0, plan.NumTasks())
	ctx, got, release, ok := s.acquireWorkers(w, r, q.Workers)
	if !ok {
		return
	}
	defer release()

	rs, err := s.execQuery(ctx, q, plan, got, nil)
	if err != nil {
		s.writeQueryError(ctx, w, err)
		return
	}
	body, err := rs.Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	if cacheable {
		s.cfg.Store.PutResult(key, body)
	}
	writeJSONBytes(w, body)
}

// flushWindow and flushBytes bound how long and how much a lineWriter
// coalesces. The window is far below dist.Options.StragglerMin, so the
// coordinator's straggler speculation cannot fire because of it.
const (
	flushWindow = 2 * time.Millisecond
	flushBytes  = 32 << 10
)

// lineWriter writes the NDJSON records of one response: every line of it is
// appended into one reused buffer, then coalesced with its neighbours so a
// stream sends a few large HTTP chunks instead of one per line. A line that
// arrives when nothing was sent for flushWindow goes out at once, without a
// copy (the first line included, so time to first line and sparse streams
// keep their latency). Any other line waits in pending, sized once per
// stream, until flushBytes accumulate or the per-stream timer fires, so no
// line waits longer than flushWindow.
// close sends what is pending and stops the timer; every handler defers it,
// and the terminal line, written last, reaches the client behind every line
// before it.
//
// The ResponseWriter is touched only under mu, by the handler and by the
// timer's goroutine, and never after close. A send that fails in the timer
// goroutine is kept and returned by the next write.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte // the line being appended; only the handler touches it

	mu      sync.Mutex
	pending []byte    // complete lines not sent yet
	since   time.Time // arrival of the oldest pending line
	last    time.Time // the last send
	timer   *time.Timer
	closed  bool
	err     error // the first failed send
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	flusher, _ := w.(http.Flusher)
	return &lineWriter{w: w, flusher: flusher}
}

// write terminates b — appended into lw.buf[:0] — with a newline, keeps
// the grown buffer for the next line and queues it for sending. It returns
// the error of any send that failed so far.
func (lw *lineWriter) write(b []byte) error {
	b = append(b, '\n')
	lw.buf = b
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil || lw.closed {
		return lw.err
	}
	now := time.Now()
	first := len(lw.pending) == 0
	if first && now.Sub(lw.last) >= flushWindow {
		lw.send(b, now)
		return lw.err
	}
	if first {
		lw.since = now
		if cap(lw.pending) == 0 {
			lw.pending = make([]byte, 0, flushBytes+len(b))
		}
	}
	lw.pending = append(lw.pending, b...)
	switch {
	case len(lw.pending) >= flushBytes || now.Sub(lw.last) >= flushWindow:
		lw.flush(now)
	case first:
		lw.arm(flushWindow)
	}
	return lw.err
}

// send writes and flushes p; lw.mu is held.
func (lw *lineWriter) send(p []byte, now time.Time) {
	if len(p) == 0 || lw.err != nil {
		return
	}
	if _, err := lw.w.Write(p); err != nil {
		lw.err = err
	} else if lw.flusher != nil {
		lw.flusher.Flush()
	}
	lw.last = now
}

// flush sends pending and empties it; lw.mu is held.
func (lw *lineWriter) flush(now time.Time) {
	lw.send(lw.pending, now)
	lw.pending = lw.pending[:0]
}

// arm schedules fire after d, creating the stream's one timer on first use;
// lw.mu is held.
func (lw *lineWriter) arm(d time.Duration) {
	if lw.timer == nil {
		lw.timer = time.AfterFunc(d, lw.fire)
	} else {
		lw.timer.Reset(d)
	}
}

// fire is the timer's callback: it sends pending once its oldest line is
// flushWindow old. A callback that was already running when a later first
// pending line re-armed the timer finds that line younger and re-arms.
func (lw *lineWriter) fire() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed || len(lw.pending) == 0 {
		return
	}
	now := time.Now()
	if wait := flushWindow - now.Sub(lw.since); wait > 0 {
		lw.arm(wait)
		return
	}
	lw.flush(now)
}

// close sends what is pending and stops the timer. After it nothing
// touches the ResponseWriter; later writes are dropped.
func (lw *lineWriter) close() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return
	}
	lw.flush(time.Now())
	lw.closed = true
	if lw.timer != nil {
		lw.timer.Stop()
	}
}

// appendJSON appends v into lw.buf[:0] as a json.Encoder with HTML escaping
// off writes it, less the encoder's newline: the /v1/batch records and the
// terminal error record of /v2/query/stream.
func (lw *lineWriter) appendJSON(v any) ([]byte, error) {
	bb := bytes.NewBuffer(lw.buf[:0])
	enc := json.NewEncoder(bb)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(bb.Bytes(), []byte{'\n'}), nil
}

// task writes one TaskResult line.
func (lw *lineWriter) task(tr *query.TaskResult) error {
	b, err := tr.AppendJSON(lw.buf[:0])
	if err != nil {
		return err
	}
	return lw.write(b)
}

// done writes the terminal record of a /v2/query/stream response: done=true,
// the task count, the replicas (or lifetime) summary when the plan has one,
// and the execution trace when the query opted in.
func (lw *lineWriter) done(d query.StreamDone) error {
	return lw.write(d.AppendJSON(lw.buf[:0]))
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	q, plan, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	s.countQuery(plan.Kind, plan.NumTasks())
	// A stream always runs the plan. With the per-task store attached, a
	// repeated stream takes every task from the entries the first one
	// stored, and an interrupted stream is resumable: every task computed
	// before a disconnect was persisted, so the retried stream reuses them
	// and recomputes only the remainder. The stream still writes the
	// whole-query entry /v2/query serves; a traced query skips it, as in
	// handleQuery.
	key, keyed := s.storeKey(q)
	cacheable := keyed && !q.Trace
	s.attachStore(plan, key, keyed, 0, plan.NumTasks())
	ctx, got, release, ok := s.acquireWorkers(w, r, q.Workers)
	if !ok {
		return
	}
	defer release()

	w.Header()["Content-Type"] = ndjsonType
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w)
	defer lw.close()

	var encodeErr error
	rs, err := s.execQuery(ctx, q, plan, got, func(tr query.TaskResult) error {
		if err := lw.task(&tr); err != nil {
			encodeErr = err
			return err // client went away; execution cancels the rest
		}
		return nil
	})
	if err != nil {
		// Headers are gone; a structured terminal error line (done stays
		// false) tells the client why the stream ended early, and its
		// absence — a hard truncation — still signals failure. It goes
		// through lw, behind the lines still pending there. A dead client
		// connection gets nothing, which is fine: nobody is reading.
		if encodeErr == nil {
			if b, err := lw.appendJSON(queryStreamErrorLine{Error: queryErrorDetail(ctx, err)}); err == nil {
				_ = lw.write(b)
			}
		}
		return
	}
	if cacheable {
		// Results are deterministic, so a key already holding its
		// whole-query entry holds exactly these bytes: a repeated stream
		// skips the encode and the store write.
		if _, hit := s.cfg.Store.GetResult(key); !hit {
			if body, err := rs.Encode(); err == nil {
				s.cfg.Store.PutResult(key, body)
			}
		}
	}
	_ = lw.done(rs.StreamDone())
}

// queryStreamErrorLine is the terminal NDJSON record of a failed stream:
// done=false plus the same structured error detail the non-streaming route
// would have answered with.
type queryStreamErrorLine struct {
	Done  bool        `json:"done"`
	Error errorDetail `json:"error"`
}

// queryErrorDetail maps a v2 execution failure under the request context
// ctx to its structured error: an exceeded deadline, the query's timeout_ms
// or the server's RequestTimeout, is a 504 (the inputs were fine, the time
// budget was not), other context failures are
// 503s, validation errors keep their field, and anything else is a 400 (the
// model rejected the inputs).
func queryErrorDetail(ctx context.Context, err error) errorDetail {
	if errors.Is(err, context.DeadlineExceeded) {
		return errorDetail{Status: http.StatusGatewayTimeout, Message: "query deadline exceeded"}
	}
	if cerr := ctx.Err(); cerr != nil {
		return errorDetail{Status: http.StatusServiceUnavailable, Message: cerr.Error()}
	}
	var aerr *Error
	if errors.As(err, &aerr) {
		return errorDetail{Status: http.StatusBadRequest, Message: aerr.Message, Field: aerr.Field}
	}
	return errorDetail{Status: http.StatusBadRequest, Message: err.Error()}
}

// writeQueryError renders a v2 execution failure (see queryErrorDetail for
// the status mapping).
func (s *Server) writeQueryError(ctx context.Context, w http.ResponseWriter, err error) {
	d := queryErrorDetail(ctx, err)
	writeError(w, d.Status, d.Message, d.Field)
}
