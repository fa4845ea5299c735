package store

import (
	"crypto/sha256"
	"crypto/subtle"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"dense802154/internal/query"
)

// DefaultMaxBytes is the in-memory tier budget when Config.MaxBytes is 0.
const DefaultMaxBytes = 256 << 20

// resultIndex is the reserved entry index of a whole-query ResultSet body
// (task indexes are ≥ 0).
const resultIndex = -1

// entryOverhead approximates the fixed per-entry memory cost (map slot, key,
// list links) charged against the byte budget on top of the payload.
const entryOverhead = 128

// entryChunk is how many entries insert carves from one allocation when the
// free list is empty.
const entryChunk = 64

// arenaChunk is the size of one shared payload chunk, and arenaMaxPut the
// largest payload a fresh-key put copies into one. A chunk is abandoned
// only when the next payload does not fit, so tail waste is at most
// arenaMaxPut/arenaChunk = 1/16 of every chunk.
const (
	arenaChunk  = 64 << 10
	arenaMaxPut = 4 << 10
)

// Config parameterizes a Store.
type Config struct {
	// MaxBytes bounds the in-memory tier (payload bytes plus a fixed
	// per-entry overhead), LRU-evicted; 0 selects DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier: every put is also
	// written (atomically) to one file per entry under Dir, and a memory
	// miss falls through to a checksum-verified disk read. The directory is
	// created if needed and may be shared across restarts — that is the
	// point.
	Dir string
}

// entryKey addresses one stored entry: the query's content key plus the plan
// task index (resultIndex for whole-query ResultSet bytes).
type entryKey struct {
	key   Key
	index int
}

// entry is one in-memory cache line on the intrusive recency list. inArena
// marks bytes that live in a shared payload chunk rather than in their own
// allocation.
type entry struct {
	k          entryKey
	b          []byte
	inArena    bool
	prev, next *entry
}

// Stats is a point-in-time snapshot of the in-memory tier.
type Stats struct {
	Entries int
	Bytes   int64
}

// Store is the two-tier content-addressed result store. All methods are safe
// for concurrent use. Bytes are copied on Put, and Get returns a slice of
// its own (len == cap) that no later Put or eviction changes; callers must
// treat returned bytes as immutable.
//
// The in-memory tier recycles its entries: eviction zeroes an entry and puts
// it on a free list, and insert takes entries from that list, or from a
// chunk of entryChunk entries allocated at once when the list is empty.
// Entries never return to the heap one by one, so the entry memory is
// bounded by the peak live entry count (plus one partly used chunk), which
// the byte budget caps at MaxBytes/entryOverhead.
//
// Payload bytes live in an arena: a put of a fresh key with at most
// arenaMaxPut bytes copies them into the current arenaChunk-byte chunk the
// store shares among many entries, so a steady-state fresh-key put
// allocates nothing of its own. Larger payloads, disk-tier promotions and
// replacements of a resident key get their own allocation. The first Get
// hit on an arena entry copies its bytes out into their own allocation and
// only then promotes the entry, so Get never hands out a chunk (a caller
// holding one slice cannot pin 64 KiB) and later hits allocate nothing.
// Chunk bytes are never overwritten; a chunk returns to the heap once no
// resident entry references it.
//
// These rules bound the memory chunks retain. An entry still in the arena
// never moves in the recency list, so arena entries sit in the list in
// carve order and eviction, which takes the cold end, frees chunks whole.
// Every entry carved after the oldest resident arena entry is itself still
// resident, so the chunks hold at most the bytes first put under resident
// keys, plus the current partly used chunk and ≤1/16 tail waste. A key's
// bytes are a pure function of the key, so a replacement re-puts the same
// bytes and those first-put bytes are the charged bytes. The worst case is
// about 2× the charge, when every arena entry has been copied out while one
// cold neighbour per chunk still pins it. Replacements must not carve: a
// replacement loop next to a pinned cold entry would otherwise grow the
// arena without bound.
type Store struct {
	cfg Config

	mu      sync.Mutex
	entries map[entryKey]*entry
	root    entry // sentinel: root.next is most recent, root.prev least
	bytes   int64
	free    *entry  // evicted entries, linked through next
	chunk   []entry // the not yet used tail of the last allocated chunk
	arena   []byte  // the not yet carved tail of the current payload chunk
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
	s := &Store{cfg: cfg, entries: make(map[entryKey]*entry)}
	s.root.prev = &s.root
	s.root.next = &s.root
	return s, nil
}

// Stats snapshots the in-memory tier.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: len(s.entries), Bytes: s.bytes}
}

// GetTask returns the stored encoded TaskResult of (key, index), or false on
// a miss. Memory hits cost no allocation; memory misses fall through to the
// disk tier, whose hits are promoted into memory.
func (s *Store) GetTask(key Key, index int) ([]byte, bool) {
	if index < 0 {
		return nil, false
	}
	return s.get(entryKey{key, index})
}

// PutTask stores the encoded TaskResult of (key, index). The bytes are
// copied; negative indexes (reserved for whole-query entries) are dropped.
func (s *Store) PutTask(key Key, index int, b []byte) {
	s.KeepTask(key, index, b)
}

// KeepTask is PutTask returning the memory tier's copy, or nil when it
// kept none (a negative index, or an entry larger than the whole budget).
// The copy may lie in an arena chunk: unlike Get, it is meant for a caller
// that holds it only while it answers one query, not for long-lived
// references.
func (s *Store) KeepTask(key Key, index int, b []byte) []byte {
	if index < 0 {
		return nil
	}
	return s.put(entryKey{key, index}, b)
}

// GetResult returns the stored whole-query ResultSet bytes of key.
func (s *Store) GetResult(key Key) ([]byte, bool) {
	return s.get(entryKey{key, resultIndex})
}

// PutResult stores the whole-query ResultSet bytes of key — the exact bytes
// served, so a later hit is byte-identical by construction.
func (s *Store) PutResult(key Key, b []byte) {
	s.put(entryKey{key, resultIndex}, b)
}

// taskView adapts one query's slice of the store to query.TaskStore.
type taskView struct {
	s   *Store
	key Key
}

func (v *taskView) GetTask(index int) ([]byte, bool)  { return v.s.GetTask(v.key, index) }
func (v *taskView) PutTask(index int, encoded []byte) { v.s.PutTask(v.key, index, encoded) }
func (v *taskView) KeepTask(index int, encoded []byte) []byte {
	return v.s.KeepTask(v.key, index, encoded)
}

// Tasks returns the per-task store view of q for attaching to a compiled
// Plan (Plan.Store), or nil when q is not cacheable (Direct losses) or the
// store itself is nil — both safe to assign to Plan.Store directly.
func (s *Store) Tasks(q query.Query) query.TaskStore {
	if s == nil {
		return nil
	}
	key, ok := KeyFor(q)
	if !ok {
		return nil
	}
	return s.TasksAt(key)
}

// TasksAt returns the per-task store view of the query whose content key is
// key, for a caller that already derived the key with KeyFor.
func (s *Store) TasksAt(key Key) query.TaskStore {
	return &taskView{s: s, key: key}
}

// get looks up k memory-first, then disk. A hit on an arena entry copies
// its bytes out before promoting it (see Store).
func (s *Store) get(k entryKey) ([]byte, bool) {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		if e.inArena {
			e.b, e.inArena = clone(e.b), false
		}
		s.unlink(e)
		s.pushFront(e)
		// Read the bytes before unlocking: once the lock is released the
		// entry may be evicted and reused for another key.
		b := e.b
		s.mu.Unlock()
		HitsTotal.Inc()
		return b, true
	}
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		if b, ok := s.diskRead(k); ok {
			HitsTotal.Inc()
			DiskHitsTotal.Inc()
			s.insert(k, b, false)
			return b, true
		}
	}
	MissesTotal.Inc()
	return nil, false
}

// put copies b into the memory tier, mirrors it to disk and returns the
// memory tier's copy (nil when it kept none).
func (s *Store) put(k entryKey, b []byte) []byte {
	PutsTotal.Inc()
	kept := s.insert(k, b, true)
	if s.cfg.Dir != "" {
		s.diskWrite(k, b)
	}
	return kept
}

// insert installs b into the memory tier and evicts from the cold end while
// over budget. With borrowed set, b belongs to the caller and is copied
// under the lock: into the arena for a fresh key of at most arenaMaxPut
// bytes, into its own allocation otherwise; without it, b is the store's
// own (a disk read) and is kept as is. An entry larger than the whole
// budget skips the memory tier (it would evict everything and then itself);
// the disk tier still holds it. insert returns the bytes the entry holds
// (nil when it skipped the memory tier); they stay valid after eviction.
func (s *Store) insert(k entryKey, b []byte, borrowed bool) []byte {
	cost := int64(len(b)) + entryOverhead
	if cost > s.cfg.MaxBytes {
		return nil
	}
	if borrowed && len(b) > arenaMaxPut {
		b, borrowed = clone(b), false // never carved: copy before locking
	}
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		if borrowed {
			b = clone(b)
		}
		s.bytes += int64(len(b)) - int64(len(e.b))
		BytesGauge.Add(int64(len(b)) - int64(len(e.b)))
		e.b, e.inArena = b, false
		s.unlink(e)
		s.pushFront(e)
	} else {
		e = s.newEntry()
		e.k = k
		switch {
		case !borrowed:
		case len(b) > 0 && len(b) <= arenaMaxPut:
			b, e.inArena = s.carve(b), true
		default:
			b = clone(b)
		}
		e.b = b
		s.entries[k] = e
		s.pushFront(e)
		s.bytes += cost
		BytesGauge.Add(cost)
		EntriesGauge.Add(1)
	}
	for s.bytes > s.cfg.MaxBytes {
		old := s.root.prev
		if old == &s.root {
			break
		}
		s.unlink(old)
		delete(s.entries, old.k)
		s.bytes -= int64(len(old.b)) + entryOverhead
		BytesGauge.Add(-(int64(len(old.b)) + entryOverhead))
		EntriesGauge.Add(-1)
		EvictionsTotal.Inc()
		s.recycle(old)
	}
	s.mu.Unlock()
	return b
}

// newEntry returns a zeroed entry from the free list, or from the current
// chunk when the list is empty. Callers hold s.mu.
func (s *Store) newEntry() *entry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]entry, entryChunk)
	}
	e := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return e
}

// carve copies b (0 < len(b) ≤ arenaMaxPut) into the current payload chunk,
// starting a new chunk when the rest of this one is too short, and returns
// the copy cap-limited to its length. Callers hold s.mu.
func (s *Store) carve(b []byte) []byte {
	if len(b) > len(s.arena) {
		s.arena = make([]byte, arenaChunk)
	}
	n := len(b)
	c := s.arena[:n:n]
	copy(c, b)
	s.arena = s.arena[n:]
	return c
}

// clone copies b into an allocation of exactly its length (bytes.Clone may
// round the capacity up, and Get promises len == cap).
func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// recycle zeroes an evicted entry — dropping its bytes, which stay with
// whoever Get handed them to — and pushes it on the free list. Callers hold
// s.mu.
func (s *Store) recycle(e *entry) {
	*e = entry{next: s.free}
	s.free = e
}

func (s *Store) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *Store) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

// ---- on-disk tier ----
//
// One file per entry: payload bytes followed by their SHA-256. Writes go to
// a temp file in the same directory and rename into place, so a reader only
// ever sees a complete former or current entry — a crash mid-write leaves a
// temp file, never a short entry file. Reads verify the trailing checksum
// and delete anything that fails it (truncation, bit rot, a foreign file
// under the entry's name): the result is a miss and a recompute, never a
// wrong byte.

// diskPath names the entry file: <hex key>.<index>, with the whole-query
// entry as <hex key>.result.
func (s *Store) diskPath(k entryKey) string {
	suffix := "result"
	if k.index >= 0 {
		suffix = strconv.Itoa(k.index)
	}
	return filepath.Join(s.cfg.Dir, k.key.String()+"."+suffix)
}

func (s *Store) diskRead(k entryKey) ([]byte, bool) {
	path := s.diskPath(k)
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

func (s *Store) diskWrite(k entryKey, b []byte) {
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
		werr = os.Rename(tmp.Name(), s.diskPath(k))
	}
	if werr != nil {
		DiskErrorsTotal.Inc()
		_ = os.Remove(tmp.Name())
	}
}
