package store

import (
	"bytes"
	"testing"
	"unsafe"
)

// chunkTracker names the payload chunk a carved slice lives in. put records
// the store's current chunk after every put, from the uncarved tail, which
// ends where the chunk ends; the tracker keeps every chunk it saw reachable,
// so no address range it knows is ever reused by a later allocation.
type chunkTracker struct {
	starts []uintptr
	keep   [][]byte
}

func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// find returns the index of the chunk holding b, or -1.
func (ct *chunkTracker) find(b []byte) int {
	p := addr(b)
	for i, s := range ct.starts {
		if p >= s && p < s+arenaChunk {
			return i
		}
	}
	return -1
}

// put stores b under (key, i) and records the chunk the store carves from.
func (ct *chunkTracker) put(st *Store, key Key, i int, b []byte) {
	st.PutTask(key, i, b)
	st.mu.Lock()
	defer st.mu.Unlock()
	if cap(st.arena) == 0 {
		return // no chunk yet, or one carved to the last byte
	}
	if start := addr(st.arena) + uintptr(cap(st.arena)) - arenaChunk; len(ct.starts) == 0 || ct.starts[len(ct.starts)-1] != start {
		ct.starts = append(ct.starts, start)
		ct.keep = append(ct.keep, st.arena)
	}
}

// residentChunks counts the distinct chunks resident arena entries
// reference, against the bound the Store doc promises: charged bytes over
// the bytes a chunk holds at least before it is abandoned, plus the
// current chunk and the oldest, partly evicted one.
func (ct *chunkTracker) residentChunks(t *testing.T, st *Store) (n, bound int) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	seen := make(map[int]bool)
	for _, e := range st.entries {
		if e.inArena {
			c := ct.find(e.b)
			if c < 0 {
				t.Fatal("arena entry outside every recorded chunk")
			}
			seen[c] = true
		}
	}
	return len(seen), int(st.bytes/(arenaChunk-arenaMaxPut)) + 2
}

// arenaBlob is the deterministic payload of index i: about a grid point's
// encoded size, varying with i so chunks end at different offsets.
func arenaBlob(i int) []byte {
	return append(recycleBlob(byte(i), i), bytes.Repeat([]byte{byte(i >> 8)}, 900+i%200)...)
}

// TestArenaRetentionBounded: under churn in which every chunk keeps one cold
// entry while its neighbours are hit (copied out) or replaced, and a hot set
// from old chunks is hit every round, the chunks resident entries reference
// stay within the charged bytes over a chunk's usable bytes, plus two. A
// replacement loop next to a pinned cold entry does not grow that count.
func TestArenaRetentionBounded(t *testing.T) {
	const perRound, rounds = 60, 200
	st, err := New(Config{MaxBytes: 40 * arenaChunk})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 4
	var ct chunkTracker
	var hot []int
	for r := 0; r < rounds; r++ {
		base := r * perRound
		for j := 0; j < perRound; j++ {
			ct.put(st, key, base+j, arenaBlob(base+j))
		}
		hot = append(hot, base+1)
		for j := 2; j < perRound; j++ { // j = 0 stays cold
			if j%2 == 0 {
				st.GetTask(key, base+j)
			} else {
				ct.put(st, key, base+j, arenaBlob(base+j))
			}
		}
		for _, i := range hot {
			if b, ok := st.GetTask(key, i); ok && !bytes.Equal(b, arenaBlob(i)) {
				t.Fatalf("round %d: hot entry %d served wrong bytes", r, i)
			}
		}
		if n, bound := ct.residentChunks(t, st); n > bound {
			t.Fatalf("round %d: resident entries reference %d chunks, bound %d", r, n, bound)
		}
	}
	if EvictionsTotal.Value() == 0 {
		t.Fatal("churn evicted nothing")
	}

	// Small cold puts, each followed by a chunk's worth of replacements of
	// one neighbour: carving the replacements would leave one chunk per
	// cold entry.
	const neighbour = rounds * perRound
	ct.put(st, key, neighbour, arenaBlob(neighbour))
	before, _ := ct.residentChunks(t, st)
	for c := 1; c <= 100; c++ {
		ct.put(st, key, neighbour+c, []byte{byte(c)})
		for n := 0; n < perRound; n++ {
			ct.put(st, key, neighbour, arenaBlob(neighbour+n%2))
		}
		n, bound := ct.residentChunks(t, st)
		if n > bound || n > before+1 {
			t.Fatalf("replacement loop, cold entry %d: %d chunks (before %d, bound %d)", c, n, before, bound)
		}
	}
}

// TestGetTaskNeverAliasesArena: GetTask returns a slice of its own — cap ==
// len, outside every payload chunk — that stays byte-identical after later
// puts and after the caller appends to it, and appending leaves the stored
// entries unchanged.
func TestGetTaskNeverAliasesArena(t *testing.T) {
	const n = 200
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 5
	var ct chunkTracker
	for i := 0; i < n; i++ {
		ct.put(st, key, i, arenaBlob(i))
	}
	if len(ct.starts) < 2 {
		t.Fatalf("%d puts filled %d chunks: the test exercises no chunk boundary", n, len(ct.starts))
	}
	got := make([][]byte, n)
	for i := range got {
		b, ok := st.GetTask(key, i)
		if !ok {
			t.Fatalf("entry %d missing", i)
		}
		if cap(b) != len(b) {
			t.Fatalf("entry %d: cap %d != len %d", i, cap(b), len(b))
		}
		if c := ct.find(b); c >= 0 {
			t.Fatalf("entry %d: GetTask returned a slice of payload chunk %d", i, c)
		}
		got[i] = b
	}
	for i := n; i < 4*n; i++ {
		ct.put(st, key, i, arenaBlob(i))
	}
	for i, b := range got {
		_ = append(b, "appended by the caller"...)
		if !bytes.Equal(b, arenaBlob(i)) {
			t.Fatalf("entry %d: returned bytes changed after later puts and an append", i)
		}
	}
	for i := 0; i < 4*n; i++ {
		b, ok := st.GetTask(key, i)
		if !ok || !bytes.Equal(b, arenaBlob(i)) {
			t.Fatalf("entry %d: stored bytes changed after callers appended", i)
		}
	}
}

// TestArenaFirstHitCopiesOut: the first hit on an arena entry costs at most
// the one allocation that copies its bytes out; later hits cost nothing.
func TestArenaFirstHitCopiesOut(t *testing.T) {
	const n = 1000
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 6
	for i := 0; i <= n; i++ {
		st.PutTask(key, i, arenaBlob(i))
	}
	i := 0
	first := testing.AllocsPerRun(n, func() { // AllocsPerRun runs once more to warm up
		if _, ok := st.GetTask(key, i); !ok {
			t.Fatalf("entry %d missing", i)
		}
		i++
	})
	later := testing.AllocsPerRun(n, func() { st.GetTask(key, 0) })
	if first > 1 || later != 0 {
		t.Fatalf("first hit %v allocs/op (want ≤ 1), later hits %v (want 0)", first, later)
	}
	t.Logf("first hit %v allocs/op, later hits %v", first, later)
}
