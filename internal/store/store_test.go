package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dense802154/internal/query"
)

func gridQuery() query.Query {
	seed := int64(3)
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &query.Axis{Values: []query.Float{55, 70, 85}},
		Payloads: &query.IntAxis{Values: []int{20, 100}},
	}
}

func intPtr(v int) *int { return &v }

// queriesAllKinds builds one representative query per kind. They need not
// all compile — content keys are a pure function of the wire form — but the
// shardable ones are real workloads reused by the execution tests.
func queriesAllKinds() []query.Query {
	seed := int64(3)
	return []query.Query{
		{Kind: query.KindEvaluate, Params: &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}}},
		{Kind: query.KindBatch, Batch: []query.ParamsWire{{}, {}}},
		{Kind: query.KindCaseStudy, Config: &query.CaseStudyConfigWire{}},
		{Kind: query.KindPathLossSweep, Losses: &query.Axis{Values: []query.Float{60, 75}}},
		{Kind: query.KindPayloadSweep, Payloads: &query.IntAxis{Values: []int{20, 60}}},
		{Kind: query.KindThresholds, Losses: &query.Axis{Values: []query.Float{60, 70, 80}}},
		{Kind: query.KindSimulate, Sim: &query.SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}},
		{Kind: query.KindReplicas, Sim: &query.SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}, Replicas: 4},
		{Kind: query.KindLifetime, Sim: &query.SimConfigWire{Nodes: intPtr(6)}, Lifetime: &query.LifetimeWire{EpochSuperframes: intPtr(4)}, Replicas: 2},
		{Kind: query.KindScenario, Scenario: "dense-cell"},
		{Kind: query.KindExperiment, Experiment: "fig7"},
		gridQuery(),
	}
}

// TestKeyFieldClassification enumerates every wire field of query.Query by
// reflection and pins its key classification: mutating a key-relevant field
// must change the canonical bytes (and so the key), mutating a key-excluded
// one must not. A field added to Query without a classification here and in
// keyRelevant fails the test, so the cache-correctness decision can never be
// skipped silently.
func TestKeyFieldClassification(t *testing.T) {
	mutations := map[string]func(*query.Query){
		// version is normalized into the canonical form: 0 means "current",
		// so spelling the current version out must not change the key.
		"version":    func(q *query.Query) { q.Version = query.Version },
		"kind":       func(q *query.Query) { q.Kind = query.KindBatch },
		"params":     func(q *query.Query) { q.Params = &query.ParamsWire{} },
		"batch":      func(q *query.Query) { q.Batch = []query.ParamsWire{{}} },
		"config":     func(q *query.Query) { q.Config = &query.CaseStudyConfigWire{} },
		"sim":        func(q *query.Query) { q.Sim = &query.SimConfigWire{} },
		"lifetime":   func(q *query.Query) { q.Lifetime = &query.LifetimeWire{} },
		"losses":     func(q *query.Query) { q.Losses = &query.Axis{Values: []query.Float{60}} },
		"payloads":   func(q *query.Query) { q.Payloads = &query.IntAxis{Values: []int{20}} },
		"bos":        func(q *query.Query) { q.BOs = &query.IntAxis{Values: []int{5}} },
		"nodes":      func(q *query.Query) { q.Nodes = &query.IntAxis{Values: []int{8}} },
		"replicas":   func(q *query.Query) { q.Replicas = 3 },
		"scenario":   func(q *query.Query) { q.Scenario = "dense-cell" },
		"diff":       func(q *query.Query) { q.Diff = true },
		"experiment": func(q *query.Query) { q.Experiment = "fig7" },
		"quick":      func(q *query.Query) { q.Quick = true },
		"seed":       func(q *query.Query) { s := int64(7); q.Seed = &s },
		"workers":    func(q *query.Query) { q.Workers = 7 },
		"trace":      func(q *query.Query) { q.Trace = true },
		"timeout_ms": func(q *query.Query) { q.TimeoutMS = 1234 },
	}
	typ := reflect.TypeOf(query.Query{})
	seen := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "-" {
			continue // Direct: no wire form; Canonical refuses the whole query
		}
		if tag == "" {
			t.Fatalf("Query field %s has no json tag", f.Name)
		}
		relevant, ok := keyRelevant[tag]
		if !ok {
			t.Fatalf("Query field %s (%q) missing from keyRelevant: classify it", f.Name, tag)
		}
		mut, ok := mutations[tag]
		if !ok {
			t.Fatalf("Query field %s (%q) has no mutation in this test: add one", f.Name, tag)
		}
		seen++

		q := query.Query{Kind: query.KindEvaluate}
		before, bok := q.Canonical()
		if !bok {
			t.Fatal("base query not canonicalizable")
		}
		mut(&q)
		after, aok := q.Canonical()
		if !aok {
			t.Fatalf("%s: mutated query not canonicalizable", tag)
		}
		if changed := !bytes.Equal(before, after); changed != relevant {
			t.Errorf("field %q: canonical changed=%v, classified key-relevant=%v", tag, changed, relevant)
		}
	}
	if seen != len(keyRelevant) {
		t.Errorf("classified %d wire fields, keyRelevant lists %d", seen, len(keyRelevant))
	}
}

// TestKeyEqualityMatchesCanonicalBytes pins the hash contract across every
// query kind: two queries share a key exactly when their canonical encodings
// are byte-equal, and re-keying the same query is deterministic.
func TestKeyEqualityMatchesCanonicalBytes(t *testing.T) {
	qs := queriesAllKinds()
	if len(qs) != len(query.Kinds()) {
		t.Fatalf("%d sample queries for %d kinds", len(qs), len(query.Kinds()))
	}
	type keyed struct {
		key Key
		can []byte
	}
	ks := make([]keyed, len(qs))
	for i, q := range qs {
		can, ok := q.Canonical()
		if !ok {
			t.Fatalf("query %d (%s) not canonicalizable", i, q.Kind)
		}
		key, ok := KeyFor(q)
		if !ok {
			t.Fatalf("query %d (%s) not keyable", i, q.Kind)
		}
		key2, _ := KeyFor(q)
		if key != key2 {
			t.Fatalf("query %d (%s): key not deterministic", i, q.Kind)
		}
		ks[i] = keyed{key, can}
	}
	for i := range ks {
		for j := range ks {
			sameKey := ks[i].key == ks[j].key
			sameCan := bytes.Equal(ks[i].can, ks[j].can)
			if sameKey != sameCan {
				t.Errorf("queries %d/%d: key equality %v but canonical equality %v", i, j, sameKey, sameCan)
			}
			if i != j && sameKey {
				t.Errorf("distinct kinds %s/%s collide", qs[i].Kind, qs[j].Kind)
			}
		}
	}
}

// TestKeyNeutralFields pins the invariant the store leans on: workers, trace
// and timeout_ms never change computed result bytes, so they never change
// the key either — a traced 4-worker run warms the cache for an untraced
// single-worker one.
func TestKeyNeutralFields(t *testing.T) {
	base := gridQuery()
	want, ok := KeyFor(base)
	if !ok {
		t.Fatal("grid query not keyable")
	}
	variants := []func(*query.Query){
		func(q *query.Query) { q.Workers = 1 },
		func(q *query.Query) { q.Workers = 32 },
		func(q *query.Query) { q.Trace = true },
		func(q *query.Query) { q.TimeoutMS = 60_000 },
		func(q *query.Query) { q.Workers = 8; q.Trace = true; q.TimeoutMS = 5_000 },
	}
	for i, v := range variants {
		q := gridQuery()
		v(&q)
		got, ok := KeyFor(q)
		if !ok {
			t.Fatalf("variant %d not keyable", i)
		}
		if got != want {
			t.Errorf("variant %d: neutral field changed the key", i)
		}
	}
	direct := gridQuery()
	direct.Direct = &query.Direct{}
	if _, ok := KeyFor(direct); ok {
		t.Error("query with Direct inputs must not be keyable")
	}
}

// TestKeyForAllocBudget guards the key derivation every store lookup pays:
// the canonical bytes are appended into a stack buffer and hashed there, so
// keying a query of any kind allocates nothing (encoding the query through
// a json.Encoder took 3 to 7 allocations).
func TestKeyForAllocBudget(t *testing.T) {
	for _, q := range queriesAllKinds() {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := KeyFor(q); !ok {
				t.Fatal("query not keyable")
			}
		})
		if allocs > keyForAllocBudget {
			t.Fatalf("KeyFor of a %s query allocated %v per op, budget %d", q.Kind, allocs, keyForAllocBudget)
		}
	}
}

// TestMemoryTierLRU exercises the byte budget per table: the least
// recently used table leaves first and whole, a hit on any of a table's
// lines refreshes the table, and the charge never exceeds the budget.
func TestMemoryTierLRU(t *testing.T) {
	const lines = 8
	charge := tableCharge(t, 1, lines)
	st, err := New(Config{MaxBytes: 3 * charge})
	if err != nil {
		t.Fatal(err)
	}
	for tag := byte(1); tag <= 3; tag++ {
		fillTable(st, tag, lines)
	}
	if s := st.Stats(); tables(st) != 3 || s.Entries != 3*lines || s.Bytes != 3*charge {
		t.Fatalf("stats = %+v, want 3 tables of %d lines charged %d each", s, lines, charge)
	}
	// A hit on one line of table 1 makes table 2 the cold end; table 4
	// then pushes it out, all its lines at once.
	if _, ok := st.GetTask(tagKey(1), lines-1); !ok {
		t.Fatal("table 1 missing before eviction")
	}
	fillTable(st, 4, lines)
	if s := st.Stats(); tables(st) != 3 || s.Bytes > 3*charge {
		t.Fatalf("stats after eviction = %+v", s)
	}
	for i := 0; i < lines; i++ {
		if _, ok := st.GetTask(tagKey(2), i); ok {
			t.Fatalf("line %d of the LRU table survived an over-budget table", i)
		}
	}
	for _, tag := range []byte{1, 3, 4} {
		for i := 0; i < lines; i++ {
			b, ok := st.GetTask(tagKey(tag), i)
			if !ok || !bytes.Equal(b, recycleBlob(tag, i)) {
				t.Errorf("table %d line %d lost or corrupted after eviction", tag, i)
			}
		}
	}
	// A body joins its table's charge and recency: putting one into table
	// 1 evicts table 3, the cold end after the hits above.
	st.PutResult(tagKey(1), bytes.Repeat([]byte{1}, 64))
	if _, ok := st.GetTask(tagKey(3), 0); ok {
		t.Error("table 3 survived table 1 outgrowing its share")
	}
	if s := st.Stats(); tables(st) != 2 || s.Entries != 2*lines+1 {
		t.Fatalf("stats after the body = %+v", s)
	}
	// Replacing a held line adjusts the charge by the length difference
	// instead of duplicating the line.
	before := st.Stats()
	short := recycleBlob(1, 0)[:10]
	st.PutTask(tagKey(1), 0, short)
	if s := st.Stats(); s.Entries != before.Entries || before.Bytes-s.Bytes != int64(len(recycleBlob(1, 0))-len(short)) {
		t.Fatalf("stats after replacing line 0 = %+v, before %+v", s, before)
	}
	if b, ok := st.GetTask(tagKey(1), 0); !ok || !bytes.Equal(b, short) {
		t.Fatalf("replaced line 0 serves %q", b)
	}
}

// TestPutCopiesBytes: the store owns its copies; callers mutating their
// slice after Put must not corrupt the stored entry.
func TestPutCopiesBytes(t *testing.T) {
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	b := []byte("immutable")
	st.PutResult(key, b)
	b[0] = 'X'
	got, ok := st.GetResult(key)
	if !ok || string(got) != "immutable" {
		t.Fatalf("stored bytes follow the caller's slice: %q", got)
	}
}

// TestOversizedEntrySkipsMemory: an entry larger than the whole budget never
// enters the memory tier (it would evict everything for nothing) but is
// still served from disk.
func TestOversizedEntrySkipsMemory(t *testing.T) {
	st, err := New(Config{MaxBytes: 256, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	big := bytes.Repeat([]byte{7}, 1024)
	st.PutResult(key, big)
	if s := st.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversized entry charged to memory: %+v", s)
	}
	got, ok := st.GetResult(key)
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("oversized entry not served from disk")
	}
}

// TestDiskTierPersistsAcrossRestart: a fresh Store over the same directory
// serves what a previous one put — the restart-survival contract of
// -store-dir.
func TestDiskTierPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[3] = 9
	st1.PutTask(key, 4, []byte("task four"))
	st1.PutResult(key, []byte("whole body"))

	st2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := st2.GetTask(key, 4); !ok || string(b) != "task four" {
		t.Fatalf("task entry lost across restart: %q %v", b, ok)
	}
	if b, ok := st2.GetResult(key); !ok || string(b) != "whole body" {
		t.Fatalf("result entry lost across restart: %q %v", b, ok)
	}
}

// TestDiskCrashSafety corrupts entries the way crashes and bit rot do and
// checks every failure mode degrades to a miss — never a wrong byte — with
// the bad file removed so the next write heals it.
func TestDiskCrashSafety(t *testing.T) {
	dir := t.TempDir()
	st, err := New(Config{MaxBytes: 256, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var key Key
	key[0] = 0xAB
	payload := bytes.Repeat([]byte("abc"), 100) // oversized: memory skipped, disk only
	st.PutTask(key, 0, payload)
	st.PutTask(key, 1, payload)
	st.PutTask(key, 2, payload)

	paths := make([]string, 3)
	for i := range paths {
		m, err := filepath.Glob(filepath.Join(dir, "*."+strconv.Itoa(i)))
		if err != nil || len(m) != 1 {
			t.Fatalf("entry file for index %d: %v %v", i, m, err)
		}
		paths[i] = m[0]
	}

	// Truncation (crash mid-write of a non-atomic filesystem, torn file).
	if err := os.Truncate(paths[0], 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetTask(key, 0); ok {
		t.Error("truncated entry served")
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Error("truncated entry file not removed")
	}

	// Bit rot: flip one payload byte; the trailing checksum must catch it.
	p1 := paths[1]
	raw, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 0xFF
	if err := os.WriteFile(p1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetTask(key, 1); ok {
		t.Error("corrupted entry served")
	}

	// The intact sibling is unaffected, and re-putting heals the bad slots.
	if b, ok := st.GetTask(key, 2); !ok || !bytes.Equal(b, payload) {
		t.Error("intact entry damaged by sibling corruption")
	}
	st.PutTask(key, 0, payload)
	if b, ok := st.GetTask(key, 0); !ok || !bytes.Equal(b, payload) {
		t.Error("re-put after corruption not served")
	}
}

// TestTasksView covers the query.TaskStore adapter: nil store and
// non-cacheable queries yield a nil view (safe to assign to Plan.Store), and
// the view round-trips bytes under the query's key.
func TestTasksView(t *testing.T) {
	var nilStore *Store
	if v := nilStore.Tasks(gridQuery()); v != nil {
		t.Fatal("nil store must yield a nil view")
	}
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	direct := gridQuery()
	direct.Direct = &query.Direct{}
	if v := st.Tasks(direct); v != nil {
		t.Fatal("Direct query must yield a nil view")
	}
	v := st.Tasks(gridQuery())
	if v == nil {
		t.Fatal("cacheable query yielded no view")
	}
	if _, ok := v.GetTask(0); ok {
		t.Fatal("hit on empty store")
	}
	v.PutTask(0, []byte("r0"))
	if b, ok := v.GetTask(0); !ok || string(b) != "r0" {
		t.Fatalf("view round trip: %q %v", b, ok)
	}
	// A second view of the same query shares the entries; a different query
	// does not.
	if b, ok := st.Tasks(gridQuery()).GetTask(0); !ok || string(b) != "r0" {
		t.Fatalf("second view of same query: %q %v", b, ok)
	}
	other := gridQuery()
	other.Payloads = &query.IntAxis{Values: []int{20, 101}}
	if _, ok := st.Tasks(other).GetTask(0); ok {
		t.Fatal("different query shares entries")
	}
	// Negative indexes are reserved for whole-query entries.
	v.PutTask(-1, []byte("nope"))
	if _, ok := v.GetTask(-1); ok {
		t.Fatal("negative index stored through task view")
	}
}

// TestTaskEntriesScopedToQuery: task entries are keyed by the whole query's
// hash plus the task index, so two grids that share points — here with the
// very same index and label — but differ in one axis value share no task
// entry: the second grid computes every task and the hit counter does not
// move.
func TestTaskEntriesScopedToQuery(t *testing.T) {
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := gridQuery()
	b := gridQuery()
	b.Losses = &query.Axis{Values: []query.Float{55, 70, 80}} // a has 85
	run := func(q query.Query) *query.ResultSet {
		plan, err := query.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		plan.Store = st.Tasks(q)
		rs, err := plan.Execute(context.Background(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	ra := run(a)
	hits := HitsTotal.Value()
	rb := run(b)
	if d := HitsTotal.Value() - hits; d != 0 {
		t.Fatalf("grid b took %d store hits from grid a's entries", d)
	}
	if !bytes.Equal(encodeTask(t, ra.Results[0]), encodeTask(t, rb.Results[0])) {
		t.Fatal("the grids do not share their first point: the test shows nothing")
	}
	if got, want := st.Stats().Entries, len(ra.Results)+len(rb.Results); got != want {
		t.Fatalf("store holds %d entries, want %d (one per task of each grid)", got, want)
	}
}

func encodeTask(t *testing.T, tr query.TaskResult) []byte {
	t.Helper()
	b, err := query.EncodeTaskResult(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
