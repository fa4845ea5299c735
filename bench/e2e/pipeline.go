package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"dense802154/internal/contention"
	"dense802154/internal/dist"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

// pipeline is the in-process replay of wsn-serve's /v2/query and
// /v2/query/stream handlers: the same public calls in the same order,
// against a store and contention cache configured like the server's, with
// the HTTP layer left out. A test pins its bytes to service.NewServer's, and
// every traced run checks them against the responses the server sent.
type pipeline struct {
	st      *store.Store
	tstore  *timedStore
	tr      *timedTransport   // nil unless coordinating a dist fleet
	coord   *dist.Coordinator // nil unless coordinating a dist fleet
	workers int
}

// newPipeline builds a pipeline with a fresh default-sized store. With
// distWorkers it coordinates those worker URLs like `wsn-serve -peers`.
func newPipeline(workers int, distWorkers []string) (*pipeline, error) {
	st, err := store.New(store.Config{MaxBytes: store.DefaultMaxBytes})
	if err != nil {
		return nil, err
	}
	contention.SetCacheLimit(4096) // wsn-serve's -cache-size default
	p := &pipeline{st: st, tstore: &timedStore{st: st}, workers: workers}
	if len(distWorkers) > 0 {
		p.tr = &timedTransport{Transport: &dist.HTTPTransport{}}
		p.coord = dist.New(dist.Options{Workers: distWorkers, Transport: p.tr, Store: p.tstore})
	}
	return p, nil
}

func (p *pipeline) setRecorder(rec *recorder) {
	p.tstore.rec.Store(rec)
	if p.tr != nil {
		p.tr.rec.Store(rec)
	}
}

// streamDone is the terminal NDJSON line of /v2/query/stream (its trace
// field is omitted: generated queries never ask for a trace).
type streamDone struct {
	Done            bool                       `json:"done"`
	Count           int                        `json:"count"`
	Summary         *query.ReplicaSummaryWire  `json:"summary,omitempty"`
	LifetimeSummary *query.LifetimeSummaryWire `json:"lifetime_summary,omitempty"`
}

// serve answers one request body with the exact response bytes the server
// would send: the ResultSet encoding, or the whole NDJSON stream.
func (p *pipeline) serve(body []byte, stream bool, rec *recorder) ([]byte, error) {
	root := rec.begin("request")
	defer rec.end(root)

	s := rec.begin("query.decode")
	var q query.Query
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&q)
	if err == nil && dec.More() {
		err = errors.New("trailing data after JSON body")
	}
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}

	s = rec.begin("query.compile")
	plan, err := query.Compile(q)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}

	s = rec.begin("store.key")
	key, cacheable := store.KeyFor(q)
	cacheable = cacheable && !q.Trace
	rec.end(s)
	if cacheable && (!stream || q.Kind.WireExact()) {
		s = rec.begin("store.get_result")
		b, ok := p.st.GetResult(key)
		rec.end(s)
		if ok && !stream {
			return b, nil
		}
		if ok {
			s = rec.begin("service.stream_replay")
			out, ok := replayStored(b)
			rec.end(s)
			if ok {
				return out, nil
			}
		}
	}

	s = rec.begin("store.tasks")
	plan.Store = p.tstore.Tasks(q)
	rec.end(s)
	plan.Trace = rec != nil && p.coord == nil

	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	enc.SetEscapeHTML(false)
	var yield func(query.TaskResult) error
	count := 0
	if stream {
		yield = func(tr query.TaskResult) error {
			t0 := rec.mark()
			if err := enc.Encode(tr); err != nil {
				return err
			}
			count++
			rec.interval("service.write_line", t0, rec.mark())
			return nil
		}
	}

	s = rec.begin("query.execute")
	var rs *query.ResultSet
	if p.coord != nil {
		rs, err = p.coord.Distribute(context.Background(), q, plan, p.workers, yield)
	} else {
		rs, err = plan.Execute(context.Background(), p.workers, yield)
	}
	if err == nil {
		rec.taskSpans(s, rs.Trace)
		rs.Trace = nil // the server's query asked for no trace
	}
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}

	if stream {
		if cacheable {
			s = rec.begin("query.encode")
			out, err := rs.Encode()
			rec.end(s)
			if err == nil {
				s = rec.begin("store.put_result")
				p.st.PutResult(key, out)
				rec.end(s)
			}
		}
		if err := enc.Encode(streamDone{Done: true, Count: count, Summary: rs.Summary, LifetimeSummary: rs.LifetimeSummary}); err != nil {
			return nil, err
		}
		return lines.Bytes(), nil
	}
	s = rec.begin("query.encode")
	out, err := rs.Encode()
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	if cacheable {
		s = rec.begin("store.put_result")
		p.st.PutResult(key, out)
		rec.end(s)
	}
	return out, nil
}

// replayStored renders stored ResultSet bytes as the NDJSON stream, the way
// the stream handler answers a whole-query store hit.
func replayStored(body []byte) ([]byte, bool) {
	var rs query.ResultSet
	if err := json.Unmarshal(body, &rs); err != nil {
		return nil, false
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for i := range rs.Results {
		if err := enc.Encode(rs.Results[i]); err != nil {
			return nil, false
		}
	}
	if err := enc.Encode(streamDone{Done: true, Count: len(rs.Results), Summary: rs.Summary, LifetimeSummary: rs.LifetimeSummary}); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}
