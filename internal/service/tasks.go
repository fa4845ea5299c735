package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"

	"dense802154/internal/dist"
	"dense802154/internal/query"
)

// errStreamWrite marks a failure writing a task line back to the
// coordinator. It exists to keep the two failure families apart: a stream
// write failure is a transport fault (the coordinator re-dispatches the
// range elsewhere), while an error from a task itself is deterministic (the
// same pure task fails identically anywhere, so the coordinator aborts).
// Without the sentinel, a broken pipe surfacing through the ExecuteRange
// yield before r.Context() is canceled would be reported as a TaskLine
// error — and if that line partially landed (e.g. through a buffering
// proxy), the coordinator would abort the whole query instead of retrying
// the shard.
var errStreamWrite = errors.New("service: task stream write failed")

// ---- POST /v2/tasks ----
//
// The worker half of distributed execution: a coordinator posts a full
// query plus a task index range, and the worker streams back one NDJSON
// dist.TaskLine per task in range order, then a terminal done line. Because
// plan tasks are pure functions of (query, index), the worker recompiles
// the query locally and computes exactly the requested slice — there is no
// session state, so any worker can serve any shard at any time, which is
// what re-dispatch and speculative execution lean on. The range-order
// stream is load-bearing too: a connection that dies after k lines has
// delivered exactly the first k tasks of the range, so the coordinator
// resumes from the first missing index instead of recomputing the shard.
//
// A draining worker (SetReady(false)) refuses shards with a structured 503
// before reading the request: a coordinator that still vouches for it sees
// a failed dispatch, evicts it and re-dispatches the range elsewhere.

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "worker draining", "")
		return
	}
	var req dist.TaskRequest
	if !decodeTaskRequest(w, r, &req) {
		return
	}
	plan, err := query.Compile(req.Query)
	if err != nil {
		writeCompileError(w, err)
		return
	}
	if req.From < 0 || req.To > plan.NumTasks() || req.From >= req.To {
		writeError(w, http.StatusBadRequest, "task range outside plan", "range")
		return
	}
	// Worker-side store: tasks another query (or another coordinator) left
	// behind are served without recomputing, and everything computed here is
	// stored — the fleet-wide shared shard cache.
	key, keyed := s.storeKey(req.Query)
	s.attachStore(plan, key, keyed, req.From, req.To)
	ctx, got, release, ok := s.acquireWorkers(w, r, req.Workers)
	if !ok {
		return
	}
	defer release()

	w.Header()["Content-Type"] = ndjsonType
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w)
	defer lw.close()

	count := 0
	err = plan.ExecuteRange(ctx, got, req.From, req.To, func(tr query.TaskResult, wallMS float64) error {
		if err := lw.taskLine(&dist.TaskLine{Index: tr.Index, WallMS: wallMS, Result: &tr}); err != nil {
			return fmt.Errorf("%w: %v", errStreamWrite, err)
		}
		count++
		dist.TasksServedTotal.Inc()
		if n := s.cfg.FaultExitAfterTasks; n > 0 && s.tasksServed.Add(1) >= int64(n) {
			// Fault-injection knob: die mid-stream, deterministically, after
			// the Nth served line — the multi-process tests' worker crash.
			// close sends the lines still pending first, so exactly N were
			// delivered.
			lw.close()
			os.Exit(3)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, errStreamWrite) || ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Coordinator gone, write failed or deadline hit: the truncated
			// stream (the deferred close still sends the complete lines
			// pending) is the signal; the range is transport-retryable
			// elsewhere. Emitting a TaskLine error here would misreport a
			// transport fault as a deterministic compute failure and make the
			// coordinator abort instead of re-dispatching.
			return
		}
		// A compute error is deterministic — the same pure task fails the
		// same way anywhere — so report it for the coordinator to abort on.
		_ = lw.taskLine(&dist.TaskLine{Error: err.Error()})
		return
	}
	_ = lw.taskLine(&dist.TaskLine{Done: true, Count: count})
}

// taskLine writes one /v2/tasks record.
func (lw *lineWriter) taskLine(l *dist.TaskLine) error {
	b, err := l.AppendJSON(lw.buf[:0])
	if err != nil {
		return err
	}
	return lw.write(b)
}
