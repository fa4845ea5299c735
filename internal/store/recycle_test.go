package store

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// recycleBlob is the deterministic payload of (key tag, index): the tag and
// index spelled out and padded to a length that varies with the index, so a
// byte slice names the entry it belongs to and replacing an entry changes
// its charge.
func recycleBlob(tag byte, i int) []byte {
	head := "k" + strconv.Itoa(int(tag)) + "/i" + strconv.Itoa(i) + "|"
	return append([]byte(head), bytes.Repeat([]byte{tag}, 16+i%48)...)
}

// TestRecycleKeepsReturnedBytes: bytes GetTask handed out before an eviction
// stay byte-identical after their entry is reused by later puts — entries
// are recycled, payload bytes never are.
func TestRecycleKeepsReturnedBytes(t *testing.T) {
	const live = 4
	st, err := New(Config{MaxBytes: live * (64 + 48 + entryOverhead)})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 1
	for i := 0; i < live; i++ {
		st.PutTask(key, i, recycleBlob(1, i))
	}
	got := make([][]byte, live)
	for i := range got {
		b, ok := st.GetTask(key, i)
		if !ok {
			t.Fatalf("entry %d missing before eviction", i)
		}
		got[i] = b
	}
	first := st.entries[entryKey{key, 0}]
	reused := false
	for i := live; i < 40*live; i++ {
		st.PutTask(key, i, recycleBlob(1, i))
		st.mu.Lock()
		for _, e := range st.entries {
			reused = reused || e == first
		}
		st.mu.Unlock()
	}
	if !reused {
		t.Fatal("no evicted entry was reused: the test exercises nothing")
	}
	for i, b := range got {
		if !bytes.Equal(b, recycleBlob(1, i)) {
			t.Errorf("bytes of entry %d changed after their entry was reused: %q", i, b)
		}
		if _, ok := st.GetTask(key, i); ok {
			t.Errorf("entry %d still resident after %d later puts", i, 40*live)
		}
	}
}

// TestRecycleAccountingMatchesFresh: after heavy churn — evictions,
// in-place replacements, hits — reinserting a live set that fills the budget
// leaves the store's Stats and its share of the wsn_store_bytes and
// wsn_store_entries gauges exactly where a fresh store holding the same
// live set puts them, and serves the same bytes.
func TestRecycleAccountingMatchesFresh(t *testing.T) {
	const live, payload = 32, 200
	budget := int64(live * (payload + entryOverhead))
	var liveKey, churnKey Key
	liveKey[0], churnKey[0] = 2, 3
	liveBlob := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, payload) }
	gauges := func() [2]int64 { return [2]int64{BytesGauge.Value(), EntriesGauge.Value()} }

	g0 := gauges()
	churned, err := New(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		i := rng.Intn(3 * live)
		switch rng.Intn(4) {
		case 0:
			churned.GetTask(churnKey, i)
		case 1: // replace in place with a different size
			churned.PutTask(churnKey, i, recycleBlob(3, i+rng.Intn(48)))
		default:
			churned.PutTask(churnKey, i, recycleBlob(3, i))
		}
	}
	if EvictionsTotal.Value() == 0 {
		t.Fatal("churn evicted nothing")
	}
	for i := 0; i < live; i++ {
		churned.PutTask(liveKey, i, liveBlob(i))
	}
	g1 := gauges()

	fresh, err := New(Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < live; i++ {
		fresh.PutTask(liveKey, i, liveBlob(i))
	}
	g2 := gauges()

	if a, b := churned.Stats(), fresh.Stats(); a != b || a.Entries != live {
		t.Fatalf("Stats after churn %+v, fresh %+v (want %d entries)", a, b, live)
	}
	for k := range g0 {
		if a, b := g1[k]-g0[k], g2[k]-g1[k]; a != b {
			t.Errorf("gauge %d: churned store contributes %d, fresh store %d", k, a, b)
		}
	}
	for i := 0; i < live; i++ {
		a, aok := churned.GetTask(liveKey, i)
		b, bok := fresh.GetTask(liveKey, i)
		if !aok || !bok || !bytes.Equal(a, b) || !bytes.Equal(a, liveBlob(i)) {
			t.Fatalf("live entry %d: churned %v %q, fresh %v %q", i, aok, a, bok, b)
		}
	}
	for i := 0; i < 3*live; i++ {
		if _, ok := churned.GetTask(churnKey, i); ok {
			t.Fatalf("churn entry %d survived a live set that fills the budget", i)
		}
	}
}

// TestRecycleConcurrentNoCrossKey: concurrent puts, gets and evictions over
// a budget of a few entries never serve one key's bytes under another key
// (run under -race, this also checks that no entry field is read outside
// the lock while it may be reused).
func TestRecycleConcurrentNoCrossKey(t *testing.T) {
	const tags, indexes, rounds = 3, 32, 4000
	st, err := New(Config{MaxBytes: 8 * (64 + 48 + entryOverhead)})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, tags)
	for k := range keys {
		keys[k][0] = byte(k + 1)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < rounds; n++ {
				k, i := rng.Intn(tags), rng.Intn(indexes)
				if w%2 == 0 {
					st.PutTask(keys[k], i, recycleBlob(byte(k+1), i))
					continue
				}
				if b, ok := st.GetTask(keys[k], i); ok && !bytes.Equal(b, recycleBlob(byte(k+1), i)) {
					errs <- "key " + strconv.Itoa(k) + " index " + strconv.Itoa(i) + " served " + string(b)
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

// TestPutTaskAllocBudget: a steady-state put of a fresh (key, index) with
// eviction running allocates nothing of its own — the bytes are copied into
// a shared payload chunk (one chunk per ~128 puts of this size) and the
// entry comes off the free list eviction refills.
func TestPutTaskAllocBudget(t *testing.T) {
	const payload = 512
	st, err := New(Config{MaxBytes: 64 * (payload + entryOverhead)})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	b := make([]byte, payload)
	i := 0
	put := func() {
		st.PutTask(key, i, b)
		i++
	}
	for i < 4096 { // fill the budget and reach the eviction steady state
		put()
	}
	evictions := EvictionsTotal.Value()
	allocs := testing.AllocsPerRun(2000, put)
	if EvictionsTotal.Value() == evictions {
		t.Fatal("no eviction during the measured puts")
	}
	if allocs > putTaskAllocBudget {
		t.Fatalf("steady-state fresh-key PutTask allocated %v per op, budget %d", allocs, putTaskAllocBudget)
	}
	t.Logf("PutTask (fresh key, evicting): %v allocs/op", allocs)
}
