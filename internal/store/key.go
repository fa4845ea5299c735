// Package store is the content-addressed result store: queries encode
// deterministically, so the SHA-256 of a query's canonical bytes is a
// complete cache key for its ResultSet bytes and — via the plan's fixed task
// order — for every per-task result. Repeated sweeps become O(1) lookups, an
// interrupted /v2/query/stream resumes from persisted tasks, and the
// distributed coordinator treats the fleet as a shared shard cache: a
// re-dispatched or speculated range whose tasks are stored anywhere is a
// lookup, not a recompute. Task entries are keyed by the whole query's hash
// plus the task index, so only an identical query reuses them (a retry, a
// resumed stream, a re-dispatched shard); two grids that merely share a
// point share no task entry.
//
// The store is two-tiered: a bytes-bounded in-memory LRU (the engine.Cache
// recency idiom, bounded by bytes instead of entries) over an optional
// on-disk tier (wsn-serve -store-dir). Disk writes are atomic (temp file +
// rename) and reads are corruption-tolerant: every entry carries a trailing
// checksum, and a truncated or corrupt file is a miss plus recompute — never
// a wrong byte. The standing invariant is absolute: cached bytes equal
// freshly computed bytes at any worker count.
//
// The memory tier holds one table per query: its task lines, carved from a
// slab sized for the tasks a view puts and charged whole, and its body.
// Recency, the byte budget and eviction work per table, so a cold query
// costs the store a constant number of allocations whatever its size.
// Returned bytes are slab slices that nothing writes again; an evicted
// table is dropped and lives on only in the lines callers still hold. The
// Store type documents the rules.
package store

import (
	"crypto/sha256"
	"encoding/hex"

	"dense802154/internal/query"
)

// Key is the content address of one query: the SHA-256 of its canonical
// encoding. Hash equality is equivalent to canonical-bytes equality (modulo
// SHA-256 collisions, which nothing on this planet produces by accident):
// equal bytes hash equally by construction, and the key-hygiene tests pin
// that byte-distinct queries key distinctly.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor computes the content key of q. The second return is false when the
// query has no canonical form (it carries the v1 path-loss routes' Direct
// losses) and therefore cannot be cached. The canonical bytes are appended
// into a buffer on the stack and hashed there, so keying a query whose
// canonical form fits it (every query short of a large batch) allocates
// nothing, however often the collector runs.
func KeyFor(q query.Query) (Key, bool) {
	var buf [1024]byte
	b, ok := query.AppendCanonical(buf[:0], &q)
	if !ok {
		return Key{}, false
	}
	return sha256.Sum256(b), true
}

// keyRelevant classifies every wire field of query.Query by JSON name:
// true means the field participates in the canonical hash (it can change
// result bytes), false means it is normalized away by Query.Canonical (it
// must never change result bytes — workers is parallelism, trace is
// observability, timeout_ms is scheduling, version is normalized to the
// current wire version). TestKeyFieldClassification enforces that every
// Query field appears here, so a new field cannot silently poison keys: an
// unclassified field fails the build's tests until someone decides which
// side it belongs on.
var keyRelevant = map[string]bool{
	"version":    false,
	"kind":       true,
	"params":     true,
	"batch":      true,
	"config":     true,
	"sim":        true,
	"lifetime":   true,
	"losses":     true,
	"payloads":   true,
	"bos":        true,
	"nodes":      true,
	"replicas":   true,
	"scenario":   true,
	"diff":       true,
	"experiment": true,
	"quick":      true,
	"seed":       true,
	"workers":    false,
	"trace":      false,
	"timeout_ms": false,
}
