package query

import "bytes"

// This file is the query side of the content-addressed result store seam
// (internal/store). The query package defines the canonical encoding and the
// narrow TaskStore interface the plan consults; the store package owns
// hashing, tiering and eviction. The dependency points one way only — store
// imports query, never the reverse.

// TaskStore is the per-task result cache a Plan consults during execution:
// already keyed to one query's content hash, indexed by plan task index.
// GetTask returns the canonical encoded TaskResult bytes of a stored task;
// PutTask stores freshly computed ones. Implementations must be safe for
// concurrent use; the returned bytes must not be mutated by either side, and
// PutTask must copy the encoded bytes it keeps — the plan encodes into a
// reused scratch buffer.
// store.Store.Tasks produces one.
type TaskStore interface {
	GetTask(index int) ([]byte, bool)
	PutTask(index int, encoded []byte)
}

// Canonical returns the canonical byte encoding of the query — the exact
// bytes a content-addressed cache key hashes. Two queries with equal
// canonical bytes compute byte-identical results, because every field that
// can change result bytes is encoded and every field that cannot is
// normalized away first:
//
//   - workers is parallelism: results are bit-identical at any worker count
//     (the standing invariant), so it is zeroed.
//   - trace is observability: traces carry measured wall times and are
//     excluded from byte-identity, so it is zeroed (traced queries must not
//     be served whole from a byte cache — the caller checks, see
//     internal/service).
//   - timeout_ms is scheduling: a query either completes with its full
//     deterministic result or fails, so it is zeroed.
//   - version 0 means "current": it is normalized to Version, which also
//     keys every entry to the wire version that produced it — a future
//     version bump invalidates the whole store instead of serving bytes
//     across an encoding change.
//
// The encoding itself is the repository's byte-stable JSON form (compact,
// HTML escaping off, fixed struct field order, wire.Float floats, trailing
// newline), so equal queries always produce equal bytes; the request writer
// (request.go) writes it, and AppendCanonical writes it into a caller's
// buffer. The second return is false when the query is not cacheable:
// Direct losses (the v1 path-loss routes' grid, non-finite points included)
// have no wire form and therefore no canonical bytes.
func (q Query) Canonical() ([]byte, bool) {
	b, ok := AppendCanonical(nil, &q)
	if !ok {
		return nil, false
	}
	return b, true
}

// WireExact reports whether the kind's per-task wire payloads decode and
// re-encode byte-identically — the property that lets a stored TaskResult
// stand in for a freshly computed one anywhere (the same property
// Plan.Assemble leans on to merge distributed shards). The numeric payload
// kinds hold it by construction (wire.Float round-trips exactly); scenario
// and experiment embed foreign report types whose round-trip is not pinned,
// so their per-task results are never cached — only their whole-query
// response bytes are (which store the served bytes verbatim).
func (k Kind) WireExact() bool {
	switch k {
	case KindScenario, KindExperiment:
		return false
	}
	return true
}

// EncodeTaskResult renders one TaskResult in the canonical byte form stored
// by a TaskStore: the same compact, HTML-escaping-off encoding (with
// trailing newline) the streaming surfaces emit, so stored bytes are
// directly comparable to stream lines. The returned slice is the only
// allocation once the scratch-buffer pool is warm.
func EncodeTaskResult(tr TaskResult) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	b, err := tr.AppendJSON((*bp)[:0])
	if err != nil {
		return nil, err
	}
	return bytes.Clone(keepLine(bp, b)), nil
}

// DecodeTaskResult parses canonical TaskResult bytes back through the
// reflection-free reader (decode.go), falling back to encoding/json for any
// other input. The decoded result is the computed one: a task result is its
// wire payloads, and Plan.Assemble merges decoded and computed ones alike.
func DecodeTaskResult(b []byte) (TaskResult, error) {
	var d TaskDecoder
	var tr TaskResult
	if err := d.Decode(b, &tr); err != nil {
		return TaskResult{}, err
	}
	return tr, nil
}

// storeEnabled reports whether task-level store consultation is on for this
// plan: a store is attached and the kind's payloads round-trip exactly.
func (p *Plan) storeEnabled() bool {
	return p.Store != nil && p.Kind.WireExact()
}

// TasksFromStore reads every task the attached store holds into results,
// indexed by plan task index from 0, marks it in have and returns how many
// it read. Undecodable entries are treated as misses — the store may hold
// truncated or corrupt bytes (crash mid-write on the disk tier); a wrong
// byte must never surface, so anything suspect is recomputed. Decoded labels
// share the plan's strings, and Metrics payloads are carved from one slab
// for the whole range, allocated on the first hit, so the hits allocate
// nothing of their own.
func (p *Plan) TasksFromStore(results []TaskResult, have []bool) int {
	if !p.storeEnabled() {
		return 0
	}
	d := TaskDecoder{Labels: p.labels, Slab: len(results)}
	n := 0
	for i := range results {
		b, ok := p.Store.GetTask(i)
		if !ok {
			continue
		}
		if d.Decode(b, &results[i]) != nil {
			results[i] = TaskResult{}
			continue
		}
		have[i] = true
		n++
	}
	return n
}

// taskFromStore fetches task index from the attached store, decoding a
// Metrics payload into slot, a one-element slice of the execution's slab
// (nil ⇒ its own allocation), so a store hit in runTasks allocates nothing
// of its own. Undecodable entries are misses, as in TasksFromStore.
func (p *Plan) taskFromStore(index int, slot []MetricsWire) (TaskResult, bool) {
	if !p.storeEnabled() {
		return TaskResult{}, false
	}
	b, ok := p.Store.GetTask(index)
	if !ok {
		return TaskResult{}, false
	}
	d := TaskDecoder{Labels: p.labels, metrics: slot}
	var tr TaskResult
	if err := d.Decode(b, &tr); err != nil {
		return TaskResult{}, false
	}
	return tr, true
}

// StoreTask stores a freshly computed task result (Index and Label already
// stamped). It encodes into a pooled scratch buffer — PutTask copies what it
// keeps — so feeding the store allocates nothing for the encoding itself.
// Encoding failures just skip the store: caching is an optimization, never a
// correctness dependency.
func (p *Plan) StoreTask(tr *TaskResult) {
	if !p.storeEnabled() {
		return
	}
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	b, err := tr.AppendJSON((*bp)[:0])
	if err != nil {
		return
	}
	p.Store.PutTask(tr.Index, keepLine(bp, b))
}
