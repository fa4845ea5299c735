package query

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"dense802154/internal/wire"
)

// The result reader (decode.go) is checked against encoding/json the way
// the writer is: every input both decoders see must be accepted by both or
// rejected by both, and on accept the two values must be the same. Values
// compare field by field with floats compared by their bits (so NaN equals
// NaN and -0 differs from 0) and nil slices distinguished from empty ones.

// SameWire reports whether a and b hold the same wire values: equal field by
// field, floats by bits, nil distinguished from empty. External-package
// oracle tests (the dist.TaskLine reader) use it too.
func SameWire(a, b any) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !sameValue(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	panic("sameValue: unhandled kind " + a.Kind().String())
}

// decodeFast runs only the reflection-free path and reports whether it took
// the input.
func decodeFast(b []byte) (TaskResult, bool) {
	var d TaskDecoder
	var t TaskResult
	var s wire.Scanner
	s.Reset(b)
	d.Read(&s, &t)
	return t, s.Finish() == nil
}

// checkDecode holds DecodeTaskResult to encoding/json on one input.
func checkDecode(t *testing.T, label string, b []byte) {
	t.Helper()
	got, gerr := DecodeTaskResult(b)
	var want plainTaskResult
	werr := json.Unmarshal(b, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: reader error %v, encoding/json error %v\ninput: %q", label, gerr, werr, b)
	}
	if gerr == nil && !SameWire(got, TaskResult(want)) {
		t.Fatalf("%s: reader value differs from encoding/json\ninput: %q\n got: %+v\nwant: %+v", label, b, got, want)
	}
}

// checkCanonical additionally requires the fast path to take appender
// output: a field missing from a reader's keys, or read out of order, would
// otherwise fall back silently.
func checkCanonical(t *testing.T, label string, tr *TaskResult) {
	t.Helper()
	b, err := tr.AppendJSON(nil)
	if err != nil {
		return // payloads encoding/json cannot write either
	}
	if _, ok := decodeFast(b); !ok {
		t.Fatalf("%s: the fast path rejected appender output %s", label, b)
	}
	checkDecode(t, label, b)
}

// TestDecodeMatchesEncodingJSON is the oracle test of the result reader:
// appender output for TaskResults filled by reflection in every mode and
// seed, and for real grid, replicas, lifetime, case-study and sweep
// results, must take the fast path and decode to encoding/json's values;
// hand-made inputs outside the writer's shape must decode to encoding/json's
// values (or errors) through the fallback.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for mode := 0; mode < 3; mode++ {
		for seed := int64(0); seed < 40; seed++ {
			var tr TaskResult
			FillWire(&tr, mode, seed)
			checkCanonical(t, fmt.Sprintf("mode %d seed %d", mode, seed), &tr)
		}
	}
	// Every payload kind alone, the shapes the plans emit.
	rt := reflect.TypeOf(TaskResult{})
	for i := 0; i < rt.NumField(); i++ {
		fld := rt.Field(i)
		if !fld.IsExported() || (fld.Type.Kind() != reflect.Pointer && fld.Type.Kind() != reflect.Slice) {
			continue
		}
		for seed := int64(0); seed < 4; seed++ {
			tr := &TaskResult{Index: int(seed), Label: oracleStrings[seed]}
			newFiller(fillFull, seed).fill(reflect.ValueOf(tr).Elem().Field(i))
			checkCanonical(t, fld.Name+" payload", tr)
		}
	}
	for _, q := range realQueries() {
		rs, err := Run(t.Context(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Kind, err)
		}
		for i := range rs.Results {
			checkCanonical(t, string(q.Kind), &rs.Results[i])
		}
	}
	rs := grid1000Result(t)
	for i := range rs.Results {
		checkCanonical(t, "grid1000", &rs.Results[i])
	}

	for _, in := range nonCanonicalInputs {
		checkDecode(t, "non-canonical", []byte(in))
	}
}

// nonCanonicalInputs are shapes the writer never emits. Each must decode
// exactly as encoding/json decodes it — accepted or rejected alike.
var nonCanonicalInputs = []string{
	` { "index" : 3 , "label" : "a" } `,
	"{\"index\":3,\n\"metrics\":{\"tx_level_index\":2}}\r\n",
	`{"Index":3,"LABEL":"a"}`,
	`{"label":"a","index":3}`,
	`{"index":3,"index":4}`,
	`{"index":3,"unknown":{"x":[1,2]}}`,
	`{"index":3,"metrics":{"pr_bit":1,"pr_bit":2}}`,
	`{"index":3,"metrics":{"contention":{"ncca":1},"contention":{"pr_cf":2}}}`,
	`{"index":3,"curves":[{"loss_db":[1,2]}],"curves":[{"level_dbm":2}]}`,
	`{"index":1.0}`, `{"index":1e2}`, `{"index":"1"}`, `{"index":-0}`, `{"index":9223372036854775808}`,
	`{"index":null,"label":null,"metrics":null,"curves":null}`,
	`{"index":3,"metrics":{"pr_bit":null}}`,
	`{"index":3,"metrics":{"pr_bit":"1e400"}}`, `{"index":3,"metrics":{"pr_bit":1e400}}`,
	`{"index":3,"metrics":{"pr_bit":1e-400}}`,
	`{"index":3,"metrics":{"pr_bit":"inf","pr_e":"-infinity","pr_tf":"nan","pr_cf":"0x1p-2","expected_tx":" 1"}}`,
	`{"index":3,"metrics":{"pr_bit":"1.5","pr_e":"1_000"}}`,
	`{"index":3,"metrics":{"pr_bit":true}}`, `{"index":3,"metrics":{"pr_bit":01}}`,
	`{"index":3,"metrics":{"pr_bit":-}}`, `{"index":3,"metrics":{"pr_bit":1.}}`,
	`{"index":3,"metrics":{"pr_bit":.5}}`, `{"index":3,"metrics":{"pr_bit":+1}}`,
	`{"index":3,"casestudy":{"level_used":[1,null,3]}}`,
	`{"index":3,"casestudy":{"power_uw":[1,null]}}`,
	`{"index":3,"casestudy":{"power_uw":[1,]}}`, `{"index":3,"casestudy":{"power_uw":[,1]}}`,
	`{"index":3,"lifetime":{"sustainable":"true"}}`, `{"index":3,"lifetime":{"sustainable":null}}`,
	`{"index":3,"label":"🚀 \ud83d \ude80 \ud83dA \udc00\ud800 é\/\b\f\n\r\t"}`,
	`{"index":3,"label":"🚀\uZZZZ"}`, `{"index":3,"label":"\x"}`,
	"{\"index\":3,\"label\":\"tab\there\"}",
	"{\"index\":3,\"label\":\"bad\xff\xc3\x28 \xed\xa0\x80 ok\xc3\xa9\"}",
	`{"index":3,"label":"unterminated}`,
	`{"index":3,"scenario":{"result":{"name":"x"}}}`,
	`{"index":3,"scenario":{"result":7}}`,
	`{"index":3,"experiment":{"name":"x","tables":null},"sim":{}}`,
	`{"index":3}x`, `{"index":3}{}`, `{"index":3`, `{"index":3,}`, `{,"index":3}`, `{"index" 3}`,
	`null`, `[]`, `"x"`, ``, ` `,
	`{"index":3,"metrics":{"contention":null}}`,
	`{"index":3,"metrics":[]}`,
	`{"index":3,"metrics":{"states":{"rx_ns":1.5}}}`,
}

// TestTaskResultUnmarshalJSONMerges pins UnmarshalJSON on a TaskResult that
// already holds values: it merges as encoding/json merges into the
// method-less type, field by field and into existing payloads.
func TestTaskResultUnmarshalJSONMerges(t *testing.T) {
	first := `{"index":2,"label":"a","metrics":{"pr_bit":1},"curves":[{"level_index":1,"loss_db":[1]}]}`
	second := `{"metrics":{"pr_e":2},"curves":[{"level_dbm":3}]}`
	var got TaskResult
	var want plainTaskResult
	for _, in := range []string{first, second} {
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
	}
	if !SameWire(got, TaskResult(want)) {
		t.Fatalf("merge differs from encoding/json:\n got: %+v\nwant: %+v", got, want)
	}
	if got.Metrics.PrBit != 1 || got.Curves[0].LevelIndex != 1 {
		t.Fatalf("second decode did not merge: %+v", got)
	}
}

// TestTaskResultIsZero guards the merge switch: setting any one field makes
// a TaskResult non-zero, so a field added without updating isZero fails.
func TestTaskResultIsZero(t *testing.T) {
	if tr := (TaskResult{}); !tr.isZero() {
		t.Fatal("zero TaskResult reported non-zero")
	}
	rt := reflect.TypeOf(TaskResult{})
	for i := 0; i < rt.NumField(); i++ {
		var tr TaskResult
		f := reflect.ValueOf(&tr).Elem().Field(i)
		for n := 0; f.IsZero(); n++ { // some edge values are zero; take the next
			fl := newFiller(fillFull, 1)
			fl.n = n
			fl.fill(f)
		}
		if tr.isZero() {
			t.Errorf("TaskResult with only %s set reported zero", rt.Field(i).Name)
		}
	}
}

// encodeCorpus returns the committed FuzzTaskResultEncode corpus entries.
func encodeCorpus(tb testing.TB) [][]byte {
	dir := filepath.Join("testdata", "fuzz", "FuzzTaskResultEncode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		// Corpus files are "go test fuzz v1" followed by one []byte("...").
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		arg = strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			tb.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzTaskResultDecode holds the result reader to encoding/json on arbitrary
// input: DecodeTaskResult and json.Unmarshal into the method-less type must
// accept the same inputs and decode them to the same values, and decoding a
// second time into the filled value must merge as encoding/json merges. It
// starts from the FuzzTaskResultEncode seeds and corpus; run it locally with
//
//	go test ./internal/query -run NONE -fuzz FuzzTaskResultDecode -fuzztime 30s
func FuzzTaskResultDecode(f *testing.F) {
	for _, seed := range taskResultSeeds {
		f.Add([]byte(seed))
	}
	for _, b := range encodeCorpus(f) {
		f.Add(b)
	}
	for _, in := range nonCanonicalInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, "fuzz", data)
		got, err := DecodeTaskResult(data)
		if err != nil {
			return
		}
		var want plainTaskResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		gerr := json.Unmarshal(data, &got)
		werr := json.Unmarshal(data, &want)
		if (gerr == nil) != (werr == nil) || (gerr == nil && !SameWire(got, TaskResult(want))) {
			t.Fatalf("merge decode of %q differs from encoding/json (errors %v, %v)", data, gerr, werr)
		}
	})
}

// TestDecodeTaskResultAllocBudget guards the store-hit path: decoding one
// canonical grid task costs its MetricsWire and its label string (encoding/json
// spent 11 allocations per task), and a TaskDecoder with the plan's labels
// and a slab as large as the grid costs one slab for all thousand tasks.
func TestDecodeTaskResultAllocBudget(t *testing.T) {
	rs := grid1000Result(t)
	lines := make([][]byte, len(rs.Results))
	labels := make([]string, len(rs.Results))
	for i := range rs.Results {
		b, err := EncodeTaskResult(rs.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		lines[i], labels[i] = b, rs.Results[i].Label
	}
	n := float64(len(lines))
	perTask := testing.AllocsPerRun(5, func() {
		for _, b := range lines {
			if _, err := DecodeTaskResult(b); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	if perTask > decodeTaskAllocBudget {
		t.Fatalf("DecodeTaskResult allocated %v per grid task, budget %d", perTask, decodeTaskAllocBudget)
	}
	var tr TaskResult
	shared := testing.AllocsPerRun(5, func() {
		d := TaskDecoder{Labels: labels, Slab: len(lines)}
		for _, b := range lines {
			if err := d.Decode(b, &tr); err != nil {
				t.Fatal(err)
			}
		}
	})
	if shared > 1 {
		t.Fatalf("TaskDecoder with labels and a slab allocated %v per 1000 grid tasks, want 1", shared)
	}
	t.Logf("DecodeTaskResult: %v allocs/task; TaskDecoder with labels and slab: %v per 1000 tasks", perTask, shared)
}

// TestDecodeLabelSharing pins that a label equal to the expected one shares
// the expected string, and that a different one decodes as itself.
func TestDecodeLabelSharing(t *testing.T) {
	labels := []string{"grid[0]", "grid[1]"}
	d := TaskDecoder{Labels: labels}
	var tr TaskResult
	if err := d.Decode([]byte(`{"index":1,"label":"grid[1]"}`), &tr); err != nil {
		t.Fatal(err)
	}
	if unsafeData(tr.Label) != unsafeData(labels[1]) {
		t.Fatal("matching label was copied, not shared")
	}
	for _, in := range []string{`{"index":1,"label":"grid[0]"}`, `{"index":7,"label":"grid[1]"}`, `{"index":-1,"label":"x"}`} {
		want, _ := DecodeTaskResult([]byte(in))
		if err := d.Decode([]byte(in), &tr); err != nil || !SameWire(tr, want) {
			t.Fatalf("%s: decoded %+v (err %v), want %+v", in, tr, err, want)
		}
	}
}

// unsafeData identifies a string's backing array for the sharing check.
func unsafeData(s string) *byte { return unsafe.StringData(s) }
