package store

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"weak"
)

// recycleBlob is the deterministic payload of (key tag, index): the tag and
// index spelled out and padded to a length that varies with the index, so a
// byte slice names the line it belongs to and replacing a line changes its
// charge.
func recycleBlob(tag byte, i int) []byte {
	head := "k" + strconv.Itoa(int(tag)) + "/i" + strconv.Itoa(i) + "|"
	return append([]byte(head), bytes.Repeat([]byte{tag}, 16+i%48)...)
}

// tagKey is a key whose first byte is tag.
func tagKey(tag byte) Key {
	var k Key
	k[0] = tag
	return k
}

// fillTable puts lines 0..n-1 of tag through a view sized for n tasks.
func fillTable(st *Store, tag byte, n int) {
	v := st.TasksAt(tagKey(tag), 0, n)
	for i := 0; i < n; i++ {
		v.PutTask(i, recycleBlob(tag, i))
	}
}

// tables counts the tables st holds.
func tables(st *Store) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.tables)
}

// tableCharge is what a table of n lines of tag is charged: a fresh store's
// reading after fillTable.
func tableCharge(t *testing.T, tag byte, n int) int64 {
	t.Helper()
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fillTable(st, tag, n)
	return st.Stats().Bytes
}

// TestRecycleKeepsReturnedBytes: lines GetTask handed out before their table
// was evicted stay byte-identical after later tables — the same key's new
// one included — fill the store: slab bytes are never written twice.
func TestRecycleKeepsReturnedBytes(t *testing.T) {
	const lines = 16
	st, err := New(Config{MaxBytes: 2 * tableCharge(t, 1, lines)})
	if err != nil {
		t.Fatal(err)
	}
	fillTable(st, 1, lines)
	got := make([][]byte, lines)
	for i := range got {
		b, ok := st.GetTask(tagKey(1), i)
		if !ok {
			t.Fatalf("line %d missing before eviction", i)
		}
		got[i] = b
	}
	evictions := EvictionsTotal.Value()
	for tag := byte(2); tag < 40; tag++ {
		fillTable(st, tag, lines)
	}
	if _, ok := st.GetTask(tagKey(1), 0); ok || EvictionsTotal.Value() == evictions {
		t.Fatal("the first table was not evicted: the test exercises nothing")
	}
	fillTable(st, 1, lines)
	for tag := byte(50); tag < 60; tag++ {
		fillTable(st, tag, lines)
	}
	for i, b := range got {
		if !bytes.Equal(b, recycleBlob(1, i)) {
			t.Errorf("bytes of line %d changed after their table was evicted: %q", i, b)
		}
	}
}

// TestRecycleAccountingMatchesFresh: after heavy churn over several tables
// — evictions, replacements with other bytes, hits — filling a live table
// that takes the whole budget leaves the store's Stats and its share of the
// wsn_store_bytes and wsn_store_entries gauges exactly where a fresh store
// holding the same table puts them, and serves the same bytes.
func TestRecycleAccountingMatchesFresh(t *testing.T) {
	const live = 32
	budget := tableCharge(t, 2, live)
	gauges := func() [2]int64 { return [2]int64{BytesGauge.Value(), EntriesGauge.Value()} }

	g0 := gauges()
	churned, err := New(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	evictions := EvictionsTotal.Value()
	for n := 0; n < 5000; n++ {
		tag, i := byte(3+rng.Intn(4)), rng.Intn(live)
		v := churned.TasksAt(tagKey(tag), 0, live)
		switch rng.Intn(4) {
		case 0:
			v.GetTask(i)
		case 1: // replace with other bytes of another size
			v.PutTask(i, recycleBlob(tag, i+1+rng.Intn(48)))
		default:
			v.PutTask(i, recycleBlob(tag, i))
		}
	}
	if EvictionsTotal.Value() == evictions {
		t.Fatal("churn evicted nothing")
	}
	fillTable(churned, 2, live)
	g1 := gauges()

	fresh, err := New(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	fillTable(fresh, 2, live)
	g2 := gauges()

	if a, b := churned.Stats(), fresh.Stats(); a != b || a.Entries != live || tables(churned) != 1 {
		t.Fatalf("Stats after churn %+v, fresh %+v (want one table of %d lines)", a, b, live)
	}
	for k := range g0 {
		if a, b := g1[k]-g0[k], g2[k]-g1[k]; a != b {
			t.Errorf("gauge %d: churned store contributes %d, fresh store %d", k, a, b)
		}
	}
	for i := 0; i < live; i++ {
		a, aok := churned.GetTask(tagKey(2), i)
		b, bok := fresh.GetTask(tagKey(2), i)
		if !aok || !bok || !bytes.Equal(a, b) || !bytes.Equal(a, recycleBlob(2, i)) {
			t.Fatalf("live line %d: churned %v %q, fresh %v %q", i, aok, a, bok, b)
		}
	}
}

// TestRecycleConcurrentNoCrossKey: concurrent puts, gets and evictions over
// a budget of about one and a half tables never serve one key's bytes under
// another key (run under -race, this also checks that nothing is read
// outside the lock while a put may be writing it).
func TestRecycleConcurrentNoCrossKey(t *testing.T) {
	const tags, indexes, rounds = 3, 32, 4000
	st, err := New(Config{MaxBytes: 3 * tableCharge(t, 1, indexes) / 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < rounds; n++ {
				tag, i := byte(1+rng.Intn(tags)), rng.Intn(indexes)
				v := st.TasksAt(tagKey(tag), 0, indexes)
				if w%2 == 0 {
					v.PutTask(i, recycleBlob(tag, i))
					continue
				}
				if b, ok := v.GetTask(i); ok && !bytes.Equal(b, recycleBlob(tag, i)) {
					errs <- "key " + strconv.Itoa(int(tag)) + " index " + strconv.Itoa(i) + " served " + string(b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := st.Stats(); s.Bytes > st.cfg.MaxBytes {
		t.Fatalf("charge %d over budget %d", s.Bytes, st.cfg.MaxBytes)
	}
}

// TestTableRetentionBounded: the store drops an evicted table, so once it
// is evicted nothing of it stays reachable but what callers hold: a held
// line keeps its slab alive, and dropping it frees the slab too.
func TestTableRetentionBounded(t *testing.T) {
	const lines = 64
	st, err := New(Config{MaxBytes: 2 * tableCharge(t, 1, lines)})
	if err != nil {
		t.Fatal(err)
	}
	fillTable(st, 1, lines)
	held, ok := st.GetTask(tagKey(1), 3)
	if !ok {
		t.Fatal("line 3 missing")
	}
	st.mu.Lock()
	table := weak.Make(st.tables[tagKey(1)])
	st.mu.Unlock()
	slab := weak.Make(&held[0])
	for tag := byte(2); tag < 6; tag++ {
		fillTable(st, tag, lines)
	}
	if s := st.Stats(); s.Bytes > st.cfg.MaxBytes || tables(st) > 2 {
		t.Fatalf("store holds %+v in %d tables over a budget of %d", s, tables(st), st.cfg.MaxBytes)
	}
	runtime.GC()
	if table.Value() != nil {
		t.Fatal("an evicted table is still reachable")
	}
	if slab.Value() == nil || !bytes.Equal(held, recycleBlob(1, 3)) {
		t.Fatal("a held line lost its bytes")
	}
	held = nil
	runtime.GC()
	if slab.Value() != nil {
		t.Fatal("an evicted table's slab outlived the last line a caller held")
	}
}

// TestSlabsChargedWhole: a table's slabs are charged in full when cut, so
// tables of a large plan that each received one line — a cancelled query,
// a one-task worker range — hold no more memory than the budget, and a view
// over a range cuts a slab for that range only.
func TestSlabsChargedWhole(t *testing.T) {
	const tasks, payload, budget = 10000, 900, 4 << 20
	st, err := New(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, payload)
	st.TasksAt(tagKey(1), tasks-1, tasks).PutTask(tasks-1, line)
	if got, want := st.Stats().Bytes, tableOverhead+tasks*lineOverhead+payload+payload/8; got != want {
		t.Fatalf("a one-task range is charged %d, want %d", got, want)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for tag := byte(2); tag < 66; tag++ {
		st.TasksAt(tagKey(tag), 0, tasks).PutTask(0, line)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s := st.Stats(); s.Bytes > budget {
		t.Fatalf("charge %d over budget %d", s.Bytes, budget)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > budget+budget/4 {
		t.Fatalf("%d tables of one line each hold %d heap bytes over a budget of %d", tables(st), grown, budget)
	}
	runtime.KeepAlive(st)
}

// TestReturnedLinesNeverOverwritten: GetTask returns slices cap-limited to
// their length, so a caller appending to one cannot write into the slab,
// and the bytes stay unchanged through later puts into the same table —
// lines longer than the first, which start new slabs, a replacement with
// other bytes and re-puts of held lines, which must not carve.
func TestReturnedLinesNeverOverwritten(t *testing.T) {
	const n = 200
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := st.TasksAt(tagKey(5), 0, 2*n)
	for i := 0; i < n; i++ {
		v.PutTask(i, recycleBlob(5, i))
	}
	got := make([][]byte, n)
	for i := range got {
		b, ok := v.GetTask(i)
		if !ok {
			t.Fatalf("line %d missing", i)
		}
		if cap(b) != len(b) {
			t.Fatalf("line %d: cap %d != len %d", i, cap(b), len(b))
		}
		got[i] = b
	}
	st.mu.Lock()
	slab := len(st.tables[tagKey(5)].slab)
	st.mu.Unlock()
	for i := 0; i < n; i++ {
		v.PutTask(i, recycleBlob(5, i))
	}
	st.mu.Lock()
	if after := len(st.tables[tagKey(5)].slab); after != slab {
		t.Fatalf("re-putting held lines carved %d slab bytes", slab-after)
	}
	st.mu.Unlock()
	v.PutTask(0, recycleBlob(5, 1))
	for i := n; i < 2*n; i++ {
		v.PutTask(i, bytes.Repeat(recycleBlob(5, i), 3))
	}
	for i, b := range got {
		_ = append(b, "appended by the caller"...)
		if !bytes.Equal(b, recycleBlob(5, i)) {
			t.Fatalf("line %d: returned bytes changed after later puts and an append", i)
		}
	}
	for i := 1; i < n; i++ {
		if b, ok := v.GetTask(i); !ok || !bytes.Equal(b, recycleBlob(5, i)) {
			t.Fatalf("line %d: stored bytes changed after callers appended", i)
		}
	}
	if b, ok := v.GetTask(0); !ok || !bytes.Equal(b, recycleBlob(5, 1)) {
		t.Fatalf("replaced line 0 serves %q", b)
	}
}

// TestGetTaskHitAllocFree: every hit, the first on a line included, costs
// no allocation: lines are served from the table's slab as they are.
func TestGetTaskHitAllocFree(t *testing.T) {
	const n = 1000
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fillTable(st, 6, n+1)
	i := 0
	allocs := testing.AllocsPerRun(n, func() { // AllocsPerRun runs once more to warm up
		if _, ok := st.GetTask(tagKey(6), i); !ok {
			t.Fatalf("line %d missing", i)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a first hit costs %v allocs/op, want 0", allocs)
	}
}

// TestPutTaskAllocBudget: a put into a table sized for its plan, in a store
// filled to its budget, allocates nothing: the line is copied into the
// table's slab and indexed. The slab is charged whole when the table's first
// line cuts it, so that put is the one that evicts older tables.
func TestPutTaskAllocBudget(t *testing.T) {
	const lines, payload = 2000, 512
	b := make([]byte, payload)
	st, err := New(Config{MaxBytes: 3 * lines * (payload + lineOverhead)})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(tag byte) {
		v := st.TasksAt(tagKey(tag), 0, lines)
		for i := 0; i < lines; i++ {
			v.PutTask(i, b)
		}
	}
	for tag := byte(1); tag < 8; tag++ { // fill the budget: evictions run
		fill(tag)
	}
	v := st.TasksAt(tagKey(8), 0, lines)
	evictions := EvictionsTotal.Value()
	v.PutTask(0, b) // the table's first line cuts and charges its slab
	if EvictionsTotal.Value() == evictions {
		t.Fatal("cutting the slab of a table in a full store evicted nothing")
	}
	charge := st.Stats().Bytes
	i := 1
	allocs := testing.AllocsPerRun(lines-2, func() {
		v.PutTask(i, b)
		i++
	})
	if s := st.Stats(); s.Bytes != charge || s.Bytes > st.cfg.MaxBytes {
		t.Fatalf("puts into the slab moved the charge from %d to %d (budget %d)", charge, s.Bytes, st.cfg.MaxBytes)
	}
	if allocs > putTaskAllocBudget {
		t.Fatalf("PutTask into a table sized for its plan allocated %v per op, budget %d", allocs, putTaskAllocBudget)
	}
	t.Logf("PutTask (sized table, full store): %v allocs/op", allocs)
}
