// Package dist is the fault-tolerant distribution layer over the compiled
// query plans of internal/query: a Coordinator shards one Plan across a
// fleet of wsn-serve workers and merges the returned shards into one
// ResultSet byte-identical to a single-machine Run.
//
// Everything rests on properties the rest of the repository already
// guarantees: a compiled Plan's tasks are pure functions of (query, index)
// — seeds derive from (root, index), the contention cache is a pure memo —
// and ResultSet encoding is byte-stable. Any shard is therefore
// recomputable on any machine at any time, which is what makes the
// robustness story simple: on worker timeout, error, disconnect or death
// the coordinator just re-dispatches the missing index range elsewhere
// (with exponential backoff and jitter), speculatively duplicates
// stragglers keyed off the per-task wall times each worker reports, and —
// when the whole fleet is gone — degrades gracefully to local execution.
// The merged bytes are identical in every case.
//
// Workers expose POST /v2/tasks (served by internal/service): the body is a
// TaskRequest naming the full query plus a task index range, the response
// is NDJSON — one TaskLine per task in range order, then a terminal done
// line. The worker coalesces lines into few HTTP chunks: the first goes out
// at once and the rest arrive in batches, each line at most the worker's
// flush window (2 ms) after it completed. Streaming in range order is
// load-bearing: a shard that dies after k lines has completed exactly its
// first k tasks, so only [from+k, to) is re-dispatched.
//
// The Transport interface carries shards to workers; HTTPTransport is the
// production implementation and FaultTransport the injectable harness that
// can delay, error, drop a stream mid-shard, or kill a worker at a chosen
// task index — the integration tests drive every failure through it and
// assert merged bytes == local bytes.
package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dense802154/internal/query"
	"dense802154/internal/wire"
)

// TaskRequest is the body of POST /v2/tasks: compute tasks [From,To) of the
// plan compiled from Query. The receiving worker validates the range
// against its own compilation of the query, so a coordinator/worker version
// skew that changes plan shape fails loudly instead of merging garbage.
type TaskRequest struct {
	Query query.Query `json:"query"`
	From  int         `json:"from"`
	To    int         `json:"to"`
	// Workers is the parallelism the shard asks for on the worker (0 ⇒
	// the worker's own default); the worker clamps it to its token budget.
	// Results never depend on it.
	Workers int `json:"workers,omitempty"`
}

// AppendJSON appends the compact JSON form of r to dst: the bytes a
// json.Encoder with HTML escaping off writes for it, without the trailing
// newline, with the query written by query.AppendQuery.
func (r *TaskRequest) AppendJSON(dst []byte) []byte {
	return r.appendRange(query.AppendQuery(append(dst, `{"query":`...), &r.Query))
}

// appendRange appends the members after the query and closes the object:
// the part of a TaskRequest's bytes that differs between the shards of one
// query.
func (r *TaskRequest) appendRange(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `,"from":`...), int64(r.From), 10)
	dst = strconv.AppendInt(append(dst, `,"to":`...), int64(r.To), 10)
	if r.Workers != 0 {
		dst = strconv.AppendInt(append(dst, `,"workers":`...), int64(r.Workers), 10)
	}
	return append(dst, '}')
}

var taskRequestKeys = wire.Keys{"query", "from", "to", "workers"}

// DecodeTaskRequest decodes one /v2/tasks request body b into req, replacing
// its contents; readErr is the error that ended reading b (nil: b is the
// whole body). It is query.DecodeQuery for the enclosing request: the bytes
// AppendJSON writes decode without reflection, and anything else, or any
// readErr, replays wire.DecodeStrict over b followed by readErr, whose
// verdict, values and errors it returns.
func DecodeTaskRequest(b []byte, readErr error, req *TaskRequest) error {
	*req = TaskRequest{}
	if readErr == nil {
		var s wire.Scanner
		s.Reset(b)
		for m := s.Object(taskRequestKeys); m.Next(); {
			switch m.Key() {
			case "query":
				query.ReadQuery(&s, &req.Query)
			case "from":
				req.From = s.Int()
			case "to":
				req.To = s.Int()
			case "workers":
				req.Workers = s.Int()
			}
		}
		if s.Finish() == nil {
			return nil
		}
		*req = TaskRequest{}
	}
	return wire.DecodeStrict(wire.Replay(b, readErr), req)
}

// TaskLine is one NDJSON record of a /v2/tasks response stream. Exactly one
// of three shapes appears on a line:
//
//   - a task line: Result set, Index echoing its plan index, WallMS the
//     worker-measured wall time (the straggler-detection signal);
//   - the terminal success line: Done true with Count tasks served;
//   - a terminal error line: Error set (a deterministic compute failure —
//     retrying elsewhere would fail identically, so the coordinator aborts
//     the query instead of re-dispatching).
type TaskLine struct {
	Index  int               `json:"index,omitempty"`
	WallMS float64           `json:"wall_ms,omitempty"`
	Result *query.TaskResult `json:"result,omitempty"`
	Done   bool              `json:"done,omitempty"`
	Count  int               `json:"count,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// AppendJSON appends the compact JSON form of l (no trailing newline) to
// dst: the bytes a json.Encoder with HTML escaping off writes for it, with
// the Result written by query.TaskResult.AppendJSON. It fails on a
// non-finite WallMS (which encoding/json rejects too) or a Result that does
// not encode.
func (l *TaskLine) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	open := len(dst)
	key := func(dst []byte, k string) []byte {
		if len(dst) > open {
			dst = append(dst, ',')
		}
		return append(dst, k...)
	}
	if l.Index != 0 {
		dst = strconv.AppendInt(key(dst, `"index":`), int64(l.Index), 10)
	}
	if l.WallMS != 0 {
		if math.IsInf(l.WallMS, 0) || math.IsNaN(l.WallMS) {
			return dst, fmt.Errorf("dist: unsupported wall_ms %v", l.WallMS)
		}
		dst = wire.AppendStdFloat(key(dst, `"wall_ms":`), l.WallMS)
	}
	if l.Result != nil {
		var err error
		if dst, err = l.Result.AppendJSON(key(dst, `"result":`)); err != nil {
			return dst, err
		}
	}
	if l.Done {
		dst = key(dst, `"done":true`)
	}
	if l.Count != 0 {
		dst = strconv.AppendInt(key(dst, `"count":`), int64(l.Count), 10)
	}
	if l.Error != "" {
		dst = wire.AppendString(key(dst, `"error":`), l.Error)
	}
	return append(dst, '}'), nil
}

var taskLineKeys = wire.Keys{"index", "wall_ms", "result", "done", "count", "error"}

// DecodeTaskLine parses one /v2/tasks NDJSON record, the read side of
// AppendJSON: the bytes AppendJSON writes decode without reflection (the
// result through query.TaskDecoder), and any other input decodes with
// encoding/json, so accepted inputs and decoded values are encoding/json's.
func DecodeTaskLine(b []byte) (TaskLine, error) {
	var l TaskLine
	var s wire.Scanner
	var d query.TaskDecoder
	err := decodeLine(b, &s, &l, new(query.TaskResult), &d)
	return l, err
}

// decodeLine decodes one line into *l, reading a task result into *dst
// through dec. On input outside the writer's shape it decodes b with
// encoding/json instead, into fresh storage.
func decodeLine(b []byte, s *wire.Scanner, l *TaskLine, dst *query.TaskResult, dec *query.TaskDecoder) error {
	*l = TaskLine{}
	s.Reset(b)
	for m := s.Object(taskLineKeys); m.Next(); {
		switch m.Key() {
		case "index":
			l.Index = s.Int()
		case "wall_ms":
			l.WallMS = s.StdFloat()
		case "result":
			if s.Null() {
				break
			}
			*dst = query.TaskResult{}
			dec.Read(s, dst)
			l.Result = dst
		case "done":
			l.Done = s.Bool()
		case "count":
			l.Count = s.Int()
		case "error":
			l.Error = s.Text()
		}
	}
	if s.Finish() == nil {
		return nil
	}
	var std TaskLine
	if err := json.Unmarshal(b, &std); err != nil {
		*l = TaskLine{}
		return err
	}
	*l = std
	return nil
}
