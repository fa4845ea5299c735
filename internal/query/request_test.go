package query

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"dense802154/internal/wire"
)

// The request writer and reader (request.go) are checked the way the result
// writer and reader are: the writer against encoding/json's bytes for every
// request wire type filled by reflection, the reader against the strict
// decoder (wire.DecodeStrict) on appender output and on inputs outside the
// writer's shape.

// grid1000Body is the wire form of grid1000Query: the request body of the
// end-to-end grid-cold and dist-fanout workloads under seed 7.
const grid1000Body = `{"kind":"grid","params":{"contention":{"superframes":8,"seed":7}},` +
	`"losses":{"from":50,"to":90,"points":20},` +
	`"payloads":{"values":[10,20,30,40,50,60,70,80,100,120]},"bos":{"from":6,"to":10}}`

func requestAppendCases() []appendCase {
	return []appendCase{
		{
			name:   "Query",
			fresh:  func() any { return new(Query) },
			plain:  func(v any) any { return v },
			append: func(v any, dst []byte) ([]byte, error) { return AppendQuery(dst, v.(*Query)), nil },
		},
		caseOf("ParamsWire", (*ParamsWire).appendJSON),
		caseOf("ContentionWire", (*ContentionWire).appendJSON),
		caseOf("SuperframeWire", (*SuperframeWire).appendJSON),
		caseOf("CaseStudyConfigWire", (*CaseStudyConfigWire).appendJSON),
		caseOf("SimConfigWire", (*SimConfigWire).appendJSON),
		caseOf("LifetimeWire", (*LifetimeWire).appendJSON),
		caseOf("Axis", (*Axis).appendJSON),
		caseOf("IntAxis", (*IntAxis).appendJSON),
	}
}

// oracleCanonical is Canonical as encoding/json computes it: the normalized
// copy through a json.Encoder with HTML escaping off, trailing newline kept.
func oracleCanonical(q Query) []byte {
	q.Version, q.Workers, q.Trace, q.TimeoutMS = Version, 0, false, 0
	b, err := OracleJSON(q)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// filledQueries returns queries filled by reflection in every mode and
// seed, then every Query field alone, Direct cleared.
func filledQueries() map[string]*Query {
	out := map[string]*Query{"zero": {}}
	for mode := 0; mode < 3; mode++ {
		for seed := int64(0); seed < 40; seed++ {
			q := new(Query)
			FillWire(q, mode, seed)
			q.Direct = nil
			out[fmt.Sprintf("mode %d seed %d", mode, seed)] = q
		}
	}
	rt := reflect.TypeOf(Query{})
	for i := 0; i < rt.NumField(); i++ {
		if rt.Field(i).Name == "Direct" {
			continue
		}
		for seed := int64(0); seed < 3; seed++ {
			q := new(Query)
			newFiller(fillFull, seed).fill(reflect.ValueOf(q).Elem().Field(i))
			out[fmt.Sprintf("%s alone seed %d", rt.Field(i).Name, seed)] = q
		}
	}
	return out
}

// TestQueryAppendMatchesEncodingJSON is the oracle test of the request
// writer: every request wire type, filled by reflection in three shapes
// plus the zero value, appends exactly encoding/json's bytes, and Canonical
// matches the bytes a json.Encoder writes for the normalized query. A field
// added to a request struct but not to its appendJSON fails here.
func TestQueryAppendMatchesEncodingJSON(t *testing.T) {
	for _, c := range requestAppendCases() {
		checkAppend(t, c, "zero", c.fresh())
		for _, mode := range []fillMode{fillFull, fillEmpty} {
			for seed := int64(0); seed < 3; seed++ {
				v := c.fresh()
				f := newFiller(mode, seed)
				f.n = int(seed) * 5
				f.fill(reflect.ValueOf(v).Elem())
				checkAppend(t, c, fmt.Sprintf("mode %d seed %d", mode, seed), v)
			}
		}
		for seed := int64(0); seed < 40; seed++ {
			v := c.fresh()
			newFiller(fillRandom, seed).fill(reflect.ValueOf(v).Elem())
			checkAppend(t, c, fmt.Sprintf("random seed %d", seed), v)
		}
	}
	for label, q := range filledQueries() {
		got, ok := q.Canonical()
		if !ok {
			t.Fatalf("%s: no canonical form", label)
		}
		if want := oracleCanonical(*q); !bytes.Equal(got, want) {
			t.Fatalf("%s: Canonical differs from encoding/json\n got: %s\nwant: %s", label, got, want)
		}
	}
	q := grid1000Query()
	if got := AppendQuery(nil, &q); string(got) != grid1000Body {
		t.Fatalf("grid1000Query appends as %s, want %s", got, grid1000Body)
	}
	q.Direct = &Direct{Losses: []float64{50}}
	if b, ok := AppendCanonical([]byte("x"), &q); ok || string(b) != "x" {
		t.Fatalf("a Direct query has a canonical form: %q, %v", b, ok)
	}
}

// decodeQueryFast runs only the reflection-free reader and reports whether
// it took the input.
func decodeQueryFast(b []byte) (Query, bool) {
	var q Query
	var s wire.Scanner
	s.Reset(b)
	ReadQuery(&s, &q)
	return q, s.Finish() == nil
}

// checkQueryDecode holds DecodeQuery to the strict decoder on one input:
// the same verdict, the same error text and the same values.
func checkQueryDecode(t *testing.T, label string, b []byte) {
	t.Helper()
	var got, want Query
	gerr := DecodeQuery(b, nil, &got)
	werr := wire.DecodeStrict(bytes.NewReader(b), &want)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: reader error %v, strict decoder error %v\ninput: %q", label, gerr, werr, b)
	}
	if gerr == nil && !SameWire(got, want) {
		t.Fatalf("%s: reader value differs from the strict decoder\ninput: %q\n got: %+v\nwant: %+v", label, b, got, want)
	}
}

// TestQueryDecodeMatchesEncodingJSON is the oracle test of the request
// reader: appender output for queries filled by reflection must take the
// fast path and decode to the strict decoder's values, and inputs outside
// the writer's shape must get the strict decoder's values or errors.
func TestQueryDecodeMatchesEncodingJSON(t *testing.T) {
	for label, q := range filledQueries() {
		b := AppendQuery(nil, q)
		if _, ok := decodeQueryFast(b); !ok {
			t.Fatalf("%s: the fast path rejected appender output %s", label, b)
		}
		checkQueryDecode(t, label, b)
	}
	if _, ok := decodeQueryFast([]byte(grid1000Body)); !ok {
		t.Fatal("the fast path rejected grid1000Body")
	}
	for _, in := range nonCanonicalQueries {
		checkQueryDecode(t, "non-canonical", []byte(in))
	}
}

// nonCanonicalQueries are documents the writer never emits; each must
// decode exactly as the strict decoder decodes it, accepted or rejected.
var nonCanonicalQueries = []string{
	``, ` `, "\n\t", `null`, ` null `, `[]`, `"x"`, `7`, `{}`, ` { } `,
	`{"kind":"grid"} `, `{"kind":"grid"}x`, `{"kind":"grid"}{}`, `{"kind":"grid"} null`,
	`{"kind":"grid"`, `{"kind":"grid",}`, `{,"kind":"grid"}`, `{"kind" "grid"}`,
	`{"params":{},"kind":"evaluate"}`, `{"kind":"evaluate","kind":"grid"}`,
	`{"Kind":"evaluate"}`, `{"KIND":"evaluate"}`, `{"kind":"evaluate","unknown":1}`,
	`{"kind":"evaluate","params":{"Radio":"cc2420"}}`,
	`{"kind":"evaluate","params":{"contention":{"seed":1,"superframes":2}}}`,
	`{"kind":"evaluate","params":{"contention":{"seed":null}}}`,
	`{"kind":"evaluate","params":{"contention":null,"superframe":null}}`,
	`{"kind":"evaluate","params":{"superframe":{"bo":256,"so":1}}}`,
	`{"kind":"evaluate","params":{"superframe":{"bo":-0,"so":1}}}`,
	`{"kind":"evaluate","params":{"superframe":{"bo":-1}}}`,
	`{"kind":"evaluate","params":{"superframe":{"bo":1.0}}}`,
	`{"kind":"evaluate","params":{"superframe":{"bo":6,"so":6,"bo":7}}}`,
	`{"kind":"evaluate","params":{"payload_bytes":1.5}}`, `{"kind":"evaluate","params":{"payload_bytes":"1"}}`,
	`{"kind":"evaluate","params":{"payload_bytes":1e2}}`, `{"kind":"evaluate","params":{"payload_bytes":-0}}`,
	`{"kind":"evaluate","params":{"load":"NaN","path_loss_db":"+Inf"}}`,
	`{"kind":"evaluate","params":{"load":"nan"}}`, `{"kind":"evaluate","params":{"load":1e400}}`,
	`{"kind":"evaluate","params":{"load":null,"include_ifs":null}}`,
	`{"kind":"evaluate","params":{"include_ifs":"true"}}`, `{"kind":"evaluate","params":{"include_ifs":1}}`,
	`{"kind":null}`, `{"version":null,"replicas":null,"diff":null}`, `{"kind":7}`,
	`{"kind":"evaluate"}`, `{"kind":"evaluate\u0000"}`, "{\"kind\":\"bad\xff\"}",
	`{"kind":"batch","batch":[]}`, `{"kind":"batch","batch":null}`, `{"kind":"batch","batch":[{},null]}`,
	`{"kind":"batch","batch":[{"payload_bytes":20},{"radio":"cc2420-fast","superframe":{"bo":3,"so":2}}]}`,
	`{"kind":"grid","losses":{"values":[]},"payloads":{"values":null}}`,
	`{"kind":"grid","losses":{"values":[1,null]}}`, `{"kind":"grid","losses":{"values":[1,"2","-Inf"]}}`,
	`{"kind":"grid","payloads":{"values":[1,2.5]}}`, `{"kind":"grid","payloads":{"values":[1,]}}`,
	`{"kind":"grid","losses":{"to":90,"from":50}}`,
	`{"kind":"scenario","scenario":"dense\n<&>","diff":true}`, `{"kind":"scenario","scenario":"\ud83d"}`,
	`{"kind":"experiment","experiment":"fig4","quick":true,"seed":-9223372036854775808}`,
	`{"kind":"experiment","seed":9223372036854775808}`,
	`{"kind":"lifetime","sim":{"nodes":4},"lifetime":{"supply":"aa","capacity_j":"0x1p-2"},"replicas":2}`,
	`{"kind":"evaluate","workers":2,"trace":true,"timeout_ms":5}`, `{"kind":"evaluate","trace":"yes"}`,
	`{"version":2,"kind":"evaluate","params":{"workers":3}}`,
}

// FuzzQueryDecode holds the request reader to the strict decoder on
// arbitrary input: DecodeQuery and wire.DecodeStrict must accept the same
// documents, fail with the same error text and decode the same values. An
// accepted document's re-encoding must take the fast path and encode again
// to the same bytes, and a decoded query that compiles must count the
// tasks its plan schedules. Run it locally with
//
//	go test ./internal/query -run NONE -fuzz FuzzQueryDecode -fuzztime 30s
func FuzzQueryDecode(f *testing.F) {
	f.Add([]byte(grid1000Body))
	for _, q := range realQueries() {
		f.Add(AppendQuery(nil, &q))
	}
	for _, in := range nonCanonicalQueries {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueryDecode(t, "fuzz", data)
		var q Query
		if DecodeQuery(data, nil, &q) != nil {
			return
		}
		b := AppendQuery(nil, &q)
		back, ok := decodeQueryFast(b)
		if !ok {
			t.Fatalf("the fast path rejected the re-encoding %s of %q", b, data)
		}
		if again := AppendQuery(nil, &back); !bytes.Equal(again, b) {
			t.Fatalf("decode → encode is not a fixed point:\n first: %s\nsecond: %s", b, again)
		}
		if plan, err := Compile(q); err == nil && q.NumTasks() != plan.NumTasks() {
			t.Fatalf("%s: NumTasks %d, compiled plan %d", b, q.NumTasks(), plan.NumTasks())
		}
	})
}

// FuzzQueryEncode holds the request writer to encoding/json on arbitrary
// input: any document DecodeQuery accepts must re-encode through
// AppendQuery and Canonical to exactly the bytes a json.Encoder writes for
// the decoded query and its normalized copy. Run it locally with
//
//	go test ./internal/query -run NONE -fuzz FuzzQueryEncode -fuzztime 30s
func FuzzQueryEncode(f *testing.F) {
	f.Add([]byte(grid1000Body))
	for _, q := range realQueries() {
		f.Add(AppendQuery(nil, &q))
	}
	for _, in := range nonCanonicalQueries {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Query
		if DecodeQuery(data, nil, &q) != nil {
			return
		}
		want, err := OracleJSON(&q)
		if err != nil {
			t.Fatalf("decoded %q: encoding/json cannot encode it: %v", data, err)
		}
		if got := AppendQuery(nil, &q); !bytes.Equal(got, want) {
			t.Fatalf("decoded %q: appender bytes differ from encoding/json\n got: %s\nwant: %s", data, got, want)
		}
		if got, _ := q.Canonical(); !bytes.Equal(got, oracleCanonical(q)) {
			t.Fatalf("decoded %q: Canonical differs from encoding/json\n got: %s\nwant: %s", data, got, oracleCanonical(q))
		}
	})
}

// TestDecodeQueryReplaysReadError pins the read-error path: the strict
// decoder sees the bytes read and then the error, so a document complete
// before the error still decodes, and an incomplete one fails with it.
func TestDecodeQueryReplaysReadError(t *testing.T) {
	boom := errors.New("boom")
	var q Query
	if err := DecodeQuery([]byte(`{"kind":"grid"}`), boom, &q); err != wire.ErrTrailing {
		t.Fatalf("complete document then a read error: %v, want the trailing-data error", err)
	}
	if err := DecodeQuery([]byte(`{"kind":"gr`), boom, &q); err != boom {
		t.Fatalf("incomplete document then a read error: %v, want %v", err, boom)
	}
	if err := DecodeQuery(nil, nil, &q); err != io.EOF {
		t.Fatalf("empty document: %v, want io.EOF", err)
	}
}

// TestDecodeQueryCopiesStrings pins the contract the service's pooled body
// buffers rely on: no decoded string aliases the input, so overwriting the
// bytes after the decode changes nothing decoded, known or unknown values,
// escaped or not.
func TestDecodeQueryCopiesStrings(t *testing.T) {
	for _, body := range []string{
		`{"kind":"scenario","scenario":"dense-moderate","diff":true}`,
		`{"kind":"experiment","experiment":"fig\u0034","quick":true}`,
		`{"kind":"lifetime","sim":{"radio":"cc2420-fast"},"lifetime":{"supply":"harvester"}}`,
		`{"kind":"evaluate","params":{"radio":"my-radio","ber":"awgn","contention":{"source":"approx","arrival":"at-beacon"}}}`,
	} {
		b := []byte(body)
		var q Query
		if err := DecodeQuery(b, nil, &q); err != nil {
			t.Fatal(err)
		}
		want := AppendQuery(nil, &q)
		for i := range b {
			b[i] = 'x'
		}
		if got := AppendQuery(nil, &q); !bytes.Equal(got, want) {
			t.Fatalf("overwriting the input changed the decoded query:\n got: %s\nwant: %s", got, want)
		}
	}
}

// TestDecodeQueryAllocBudget guards the request reader: decoding the
// 1,000-point grid's body costs the pointee arena, the payload values and
// little else (the strict encoding/json decode took 31 allocations).
func TestDecodeQueryAllocBudget(t *testing.T) {
	body := []byte(grid1000Body)
	var q Query
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeQuery(body, nil, &q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > decodeQueryAllocBudget {
		t.Fatalf("DecodeQuery of the 1000-point grid body allocated %v per op, budget %d", allocs, decodeQueryAllocBudget)
	}
	t.Logf("DecodeQuery (1000-point grid body): %v allocs/op", allocs)
}
