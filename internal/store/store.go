package store

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"unsafe"

	"dense802154/internal/query"
)

// DefaultMaxBytes is the in-memory tier budget when Config.MaxBytes is 0.
const DefaultMaxBytes = 256 << 20

// resultIndex is the reserved index of a whole-query ResultSet body (task
// indexes are ≥ 0).
const resultIndex = -1

// tableOverhead is the memory of one table beyond its payload (its struct
// and its map slot), and lineOverhead that of one index slot; both are
// charged against the byte budget.
const (
	tableOverhead = int64(unsafe.Sizeof(table{})) + 48
	lineOverhead  = int64(unsafe.Sizeof([]byte(nil)))
)

// Config parameterizes a Store.
type Config struct {
	// MaxBytes bounds the in-memory tier (the tables' slabs, other payload
	// bytes, index and struct overhead), LRU-evicted by table; 0 selects
	// DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier: every put is also
	// written (atomically) to one file per task line or body under Dir,
	// and a memory miss falls through to a checksum-verified disk read.
	// The directory is created if needed and may be shared across
	// restarts — that is the point.
	Dir string
}

// table is one query's share of the memory tier: its task lines, indexed
// by plan task index and carved from slabs, and its whole-query body.
type table struct {
	key        Key
	lines      [][]byte // by task index; nil where no line is held
	slab       []byte   // the not yet carved tail of the current slab
	body       []byte
	held       int   // non-nil lines
	charge     int64 // against the budget
	prev, next *table
}

// at returns the held bytes of index (resultIndex for the body), or nil.
func (t *table) at(index int) []byte {
	switch {
	case index < 0:
		return t.body
	case index < len(t.lines):
		return t.lines[index]
	}
	return nil
}

// Stats is a point-in-time snapshot of the in-memory tier.
type Stats struct {
	Entries int // task lines and bodies
	Bytes   int64
}

// Store is the two-tier content-addressed result store. All methods are safe
// for concurrent use. Bytes are copied on put, and the bytes a get or a keep
// returns are cap-limited to their length and never written again: no later
// put, replacement or eviction changes them. Callers must treat them as
// immutable.
//
// The memory tier holds one table per query key: the query's task lines,
// indexed by task index, and its whole-query body. Lines are carved from a
// slab sized, at the first line a view puts, for the tasks the view spans
// (at most those the table lacks) at that line's length plus an eighth; a
// line that no longer fits starts a slab sized the same way. A cold query
// therefore costs the store a constant number of allocations (the table,
// its index, its slab, its body), whatever its task count. A re-put of a
// held line with the same bytes changes nothing; one with other bytes is
// copied outside the lock into an allocation of its own, never a slab.
//
// Recency, the byte budget and eviction work per table: a hit or put moves
// its table to the front, and puts evict whole tables from the cold end
// while the charge exceeds the budget. A table is charged each slab in full
// when it is cut (never larger than the budget the table has left), its
// other bytes, one index slot per task and its struct, so the charge bounds
// the memory the tier holds; only a replaced slab line stays in its slab
// uncharged. A line that would take its own table past the whole budget
// skips the memory tier (the disk tier still holds it). An evicted table is
// dropped; its slabs live on only while a caller still holds one of its
// lines.
type Store struct {
	cfg Config

	mu      sync.Mutex
	tables  map[Key]*table
	root    table // sentinel: root.next is most recent, root.prev least
	bytes   int64
	entries int
}

// New builds a Store, creating the on-disk tier directory when configured.
func New(cfg Config) (*Store, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{cfg: cfg, tables: make(map[Key]*table)}
	s.root.prev = &s.root
	s.root.next = &s.root
	return s, nil
}

// Stats snapshots the in-memory tier.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: s.entries, Bytes: s.bytes}
}

// GetTask returns the stored encoded TaskResult of (key, index), or false on
// a miss. Memory hits cost no allocation; memory misses fall through to the
// disk tier, whose hits are promoted into memory.
func (s *Store) GetTask(key Key, index int) ([]byte, bool) { return s.getTask(key, index, span{}) }

// PutTask stores the encoded TaskResult of (key, index). The bytes are
// copied; negative indexes (reserved for whole-query entries) are dropped.
func (s *Store) PutTask(key Key, index int, b []byte) { s.keepTask(key, index, span{}, b) }

// GetResult returns the stored whole-query ResultSet bytes of key.
func (s *Store) GetResult(key Key) ([]byte, bool) { return s.get(key, resultIndex, span{}) }

// PutResult stores the whole-query ResultSet bytes of key — the exact bytes
// served, so a later hit is byte-identical by construction.
func (s *Store) PutResult(key Key, b []byte) { s.put(key, resultIndex, span{}, b) }

// span is the task range [from, to) a view puts: the table's index is sized
// for to slots, its slabs for to−from lines (zero: the one line put).
type span struct{ from, to int }

// taskView adapts one query's table to query.TaskStore.
type taskView struct {
	s   *Store
	key Key
	sp  span
}

func (v *taskView) GetTask(index int) ([]byte, bool)  { return v.s.getTask(v.key, index, v.sp) }
func (v *taskView) PutTask(index int, encoded []byte) { v.s.keepTask(v.key, index, v.sp, encoded) }
func (v *taskView) KeepTask(index int, encoded []byte) []byte {
	return v.s.keepTask(v.key, index, v.sp, encoded)
}

// Tasks returns the per-task store view of q for attaching to a compiled
// Plan (Plan.Store), or nil when q is not cacheable (Direct losses) or the
// store itself is nil — both safe to assign to Plan.Store directly. The
// view spans all q.NumTasks() tasks.
func (s *Store) Tasks(q query.Query) query.TaskStore {
	if s == nil {
		return nil
	}
	key, ok := KeyFor(q)
	if !ok {
		return nil
	}
	return s.TasksAt(key, 0, q.NumTasks())
}

// TasksAt returns the per-task store view of the query whose content key is
// key, for a caller that already derived it with KeyFor and will put the
// plan's tasks [from, to), which only size the table.
func (s *Store) TasksAt(key Key, from, to int) query.TaskStore {
	return &taskView{s, key, span{from, to}}
}

// getTask and keepTask serve GetTask and KeepTask for a view spanning sp.
func (s *Store) getTask(key Key, index int, sp span) ([]byte, bool) {
	if index < 0 {
		return nil, false
	}
	return s.get(key, index, sp)
}

func (s *Store) keepTask(key Key, index int, sp span, b []byte) []byte {
	if index < 0 {
		return nil
	}
	return s.put(key, index, sp, b)
}

// get looks up (key, index) memory-first, then disk; a disk hit is
// promoted into a table sized for sp.
func (s *Store) get(key Key, index int, sp span) ([]byte, bool) {
	s.mu.Lock()
	if t := s.tables[key]; t != nil {
		if b := t.at(index); b != nil {
			s.touch(t)
			s.mu.Unlock()
			HitsTotal.Inc()
			return b, true
		}
	}
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		if b, ok := s.diskRead(key, index); ok {
			HitsTotal.Inc()
			DiskHitsTotal.Inc()
			s.insert(key, index, sp, b, false)
			return b, true
		}
	}
	MissesTotal.Inc()
	return nil, false
}

// put copies b into the memory tier, mirrors it to disk and returns the
// memory tier's copy (nil when it kept none).
func (s *Store) put(key Key, index int, sp span, b []byte) []byte {
	PutsTotal.Inc()
	kept := s.insert(key, index, sp, b, true)
	if s.cfg.Dir != "" {
		s.diskWrite(key, index, b)
	}
	return kept
}

// insert installs b as (key, index) in the memory tier, creating key's
// table when it has none, and evicts cold tables while over budget. With
// borrowed set, b is the caller's and is copied: a fresh line into a slab,
// a body or replacement before locking; without it, b is the store's own
// (a disk read) and is kept. insert returns the bytes the table holds for
// (key, index), nil when b would take the table past the whole budget.
func (s *Store) insert(key Key, index int, sp span, b []byte, borrowed bool) []byte {
	if borrowed && index < 0 {
		b, borrowed = clone(b), false
	}
	s.mu.Lock()
	t := s.tables[key]
	fresh := t == nil
	if fresh {
		t = &table{key: key}
	}
	old := t.at(index)
	switch {
	case old != nil && bytes.Equal(old, b):
		s.touch(t)
		s.mu.Unlock()
		return old
	case old != nil && borrowed:
		s.mu.Unlock()
		return s.insert(key, index, sp, clone(b), false)
	}
	n := int64(len(b))
	cost, slots := n-int64(len(old)), 0
	if fresh {
		cost += tableOverhead
	}
	if index >= len(t.lines) {
		slots = max(index+1, sp.to, 2*len(t.lines)) - len(t.lines)
		cost += int64(slots) * lineOverhead
	}
	carved := borrowed && n > 0 // borrowed here means a fresh line
	if carved && n <= int64(len(t.slab)) {
		cost -= n // charged with its slab
	}
	room := s.cfg.MaxBytes - t.charge - cost
	if room < 0 {
		s.mu.Unlock()
		return nil
	}
	if fresh {
		s.tables[key] = t
		s.pushFront(t)
	} else {
		s.touch(t)
	}
	if slots > 0 {
		lines := make([][]byte, len(t.lines)+slots)
		copy(lines, t.lines)
		t.lines = lines
	}
	switch {
	case carved:
		if n > int64(len(t.slab)) {
			want := int64(min(len(t.lines)-t.held, sp.to-sp.from)) * (n + n/8)
			size := max(min(want, room+n), n)
			t.slab = make([]byte, size)
			cost += size - n
		}
		c := t.slab[:n:n] // cap-limited: an append cannot reach the next line
		copy(c, b)
		b, t.slab = c, t.slab[n:]
	case borrowed:
		b = clone(b) // empty, but non-nil: the line reads as held
	}
	if index < 0 {
		t.body = b
	} else {
		t.lines[index] = b
	}
	if old == nil {
		if index >= 0 {
			t.held++
		}
		s.entries++
		EntriesGauge.Add(1)
	}
	t.charge += cost
	s.bytes += cost
	BytesGauge.Add(cost)
	for s.bytes > s.cfg.MaxBytes { // never reaches t: alone, it fits
		s.evict(s.root.prev)
	}
	s.mu.Unlock()
	return b
}

// clone copies b into an allocation of exactly its length (bytes.Clone may
// round the capacity up, and returned bytes are promised cap-limited).
func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// evict drops t and its charge. Callers hold s.mu.
func (s *Store) evict(t *table) {
	s.unlink(t)
	delete(s.tables, t.key)
	n := t.held
	if t.body != nil {
		n++
	}
	s.entries -= n
	s.bytes -= t.charge
	EntriesGauge.Add(-int64(n))
	BytesGauge.Add(-t.charge)
	EvictionsTotal.Inc()
}

// touch makes t the most recent table. Callers hold s.mu.
func (s *Store) touch(t *table) {
	if s.root.next != t {
		s.unlink(t)
		s.pushFront(t)
	}
}

func (s *Store) unlink(t *table) {
	t.prev.next = t.next
	t.next.prev = t.prev
}

func (s *Store) pushFront(t *table) {
	t.prev = &s.root
	t.next = s.root.next
	t.prev.next = t
	t.next.prev = t
}

// ---- on-disk tier ----
//
// One file per task line or body: payload bytes followed by their SHA-256.
// Writes go to a temp file in the same directory and rename into place, so
// a reader only ever sees a complete former or current entry — a crash
// mid-write leaves a temp file, never a short entry file. Reads verify the
// trailing checksum and delete anything that fails it (truncation, bit rot,
// a foreign file under the entry's name): the result is a miss and a
// recompute, never a wrong byte.

// diskPath names the entry file: <hex key>.<index>, with the whole-query
// body as <hex key>.result.
func (s *Store) diskPath(key Key, index int) string {
	suffix := "result"
	if index >= 0 {
		suffix = strconv.Itoa(index)
	}
	return filepath.Join(s.cfg.Dir, key.String()+"."+suffix)
}

func (s *Store) diskRead(key Key, index int) ([]byte, bool) {
	path := s.diskPath(key, index)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			DiskErrorsTotal.Inc()
		}
		return nil, false
	}
	n := len(raw) - sha256.Size
	if n < 0 {
		DiskErrorsTotal.Inc()
		_ = os.Remove(path)
		return nil, false
	}
	sum := sha256.Sum256(raw[:n])
	if subtle.ConstantTimeCompare(sum[:], raw[n:]) != 1 {
		DiskErrorsTotal.Inc()
		_ = os.Remove(path)
		return nil, false
	}
	return raw[:n:n], true
}

func (s *Store) diskWrite(key Key, index int, b []byte) {
	tmp, err := os.CreateTemp(s.cfg.Dir, ".tmp-*")
	if err != nil {
		DiskErrorsTotal.Inc()
		return
	}
	sum := sha256.Sum256(b)
	_, werr := tmp.Write(b)
	if werr == nil {
		_, werr = tmp.Write(sum[:])
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.diskPath(key, index))
	}
	if werr != nil {
		DiskErrorsTotal.Inc()
		_ = os.Remove(tmp.Name())
	}
}
