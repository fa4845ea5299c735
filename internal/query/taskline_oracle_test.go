package query_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dense802154/internal/dist"
	"dense802154/internal/query"
	"dense802154/internal/wire"
)

// plainTaskLine is dist.TaskLine without methods, for the oracle. Its
// Result still encodes through TaskResult.MarshalJSON, whose bytes
// TestAppendJSONMatchesEncodingJSON pins against the reflective oracle; this
// test pins the line framing around them.
type plainTaskLine dist.TaskLine

// TestTaskLineAppendJSONMatchesEncodingJSON extends the result-writer oracle
// to the /v2/tasks NDJSON records: task lines, the done trailer and error
// lines, filled by reflection in every mode plus the three real shapes.
func TestTaskLineAppendJSONMatchesEncodingJSON(t *testing.T) {
	var lines []dist.TaskLine
	for mode := 0; mode < 3; mode++ {
		for seed := int64(0); seed < 20; seed++ {
			var l dist.TaskLine
			query.FillWire(&l, mode, seed)
			lines = append(lines, l)
		}
	}
	var tr query.TaskResult
	query.FillWire(&tr, 0, 1)
	lines = append(lines,
		dist.TaskLine{},
		dist.TaskLine{Index: 3, WallMS: 0.0421, Result: &tr},
		dist.TaskLine{Result: &query.TaskResult{Label: "first"}},
		dist.TaskLine{Done: true, Count: 12},
		dist.TaskLine{Error: "core: path loss <NaN> &\u2028bad\xff"},
		dist.TaskLine{WallMS: 1e-9},
		dist.TaskLine{WallMS: 3e21},
	)
	for i := range lines {
		want, werr := query.OracleJSON((*plainTaskLine)(&lines[i]))
		got, gerr := lines[i].AppendJSON([]byte("p"))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("line %d: oracle error %v, appender error %v", i, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(got[1:], want) || got[0] != 'p' {
			t.Fatalf("line %d: appender bytes differ from encoding/json\n got: %s\nwant: %s", i, got, want)
		}
	}
	// A non-finite wall time is refused, as encoding/json refuses it.
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		l := dist.TaskLine{WallMS: bad}
		if _, err := l.AppendJSON(nil); err == nil {
			t.Errorf("wall_ms %v: appender accepted a non-finite value", bad)
		}
		if _, err := query.OracleJSON((*plainTaskLine)(&l)); err == nil {
			t.Errorf("wall_ms %v: oracle accepted a non-finite value", bad)
		}
	}
}

// TestTaskLineDecodeMatchesEncodingJSON is the reader's side of the line
// oracle: every line the appender writes (filled by reflection in every mode
// and seed, plus the task, done and error shapes) must decode through
// dist.DecodeTaskLine to the value json.Unmarshal gives for the method-less
// plainTaskLine, and so must lines outside the writer's shape, accepted or
// rejected alike. plainTaskLine's Result decodes through
// TaskResult.UnmarshalJSON, whose values TestDecodeMatchesEncodingJSON pins
// against the reflective oracle; this test pins the line framing.
func TestTaskLineDecodeMatchesEncodingJSON(t *testing.T) {
	var inputs [][]byte
	for mode := 0; mode < 3; mode++ {
		for seed := int64(0); seed < 20; seed++ {
			var l dist.TaskLine
			query.FillWire(&l, mode, seed)
			if b, err := l.AppendJSON(nil); err == nil {
				inputs = append(inputs, b)
			}
		}
	}
	var tr query.TaskResult
	query.FillWire(&tr, 0, 1)
	for _, l := range []dist.TaskLine{
		{}, {Index: 3, WallMS: 0.0421, Result: &tr}, {Result: &query.TaskResult{Label: "first"}},
		{Done: true, Count: 12}, {Error: "core: path loss <NaN> &\u2028bad\xff"}, {WallMS: 1e-9}, {WallMS: 3e21},
	} {
		b, err := l.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, b)
	}
	for _, in := range []string{
		`{"Index":3,"DONE":true}`, `{"done":true,"index":3}`, `{"index":3,"index":4}`, `{"wall_ms":"1"}`,
		`{"wall_ms":1e400}`, `{"wall_ms":null,"result":null}`, `{"result":{"index":1,"label":"x"},"extra":1}`,
		`{"error":"a\u00e9\ud800"}`, `{"count":1.5}`, `{"index":3}x`, `{"index":3`, `not json`, ``,
		` {"done" : true} `, `{"result":{"index":"1"}}`,
	} {
		inputs = append(inputs, []byte(in))
	}
	for _, b := range inputs {
		got, gerr := dist.DecodeTaskLine(b)
		var want plainTaskLine
		werr := json.Unmarshal(b, &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: reader error %v, encoding/json error %v", b, gerr, werr)
		}
		if gerr == nil && !query.SameWire(got, dist.TaskLine(want)) {
			t.Fatalf("%q: reader value differs from encoding/json\n got: %+v\nwant: %+v", b, got, want)
		}
	}
}

// TestTaskRequestAppendJSONMatchesEncodingJSON extends the request-writer
// oracle to the /v2/tasks request body: TaskRequests filled by reflection
// in every mode append exactly encoding/json's bytes, and their reader takes
// those bytes without reflection to the strict decoder's values.
// TestQueryAppendMatchesEncodingJSON and TestQueryDecodeMatchesEncodingJSON
// pin the query inside; this test pins the framing around it.
func TestTaskRequestAppendJSONMatchesEncodingJSON(t *testing.T) {
	var reqs []dist.TaskRequest
	for mode := 0; mode < 3; mode++ {
		for seed := int64(0); seed < 20; seed++ {
			var r dist.TaskRequest
			query.FillWire(&r, mode, seed)
			r.Query.Direct = nil
			reqs = append(reqs, r)
		}
	}
	reqs = append(reqs, dist.TaskRequest{}, dist.TaskRequest{Query: query.Query{Kind: query.KindGrid}, From: 4, To: 9, Workers: 2})
	for i := range reqs {
		want, err := query.OracleJSON(&reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		got := reqs[i].AppendJSON([]byte("p"))
		if !bytes.Equal(got[1:], want) || got[0] != 'p' {
			t.Fatalf("request %d: appender bytes differ from encoding/json\n got: %s\nwant: %s", i, got, want)
		}
		checkTaskRequestDecode(t, got[1:])
	}
	for _, in := range []string{
		``, ` `, `null`, `{}`, `{"query":null,"from":1,"to":2}`, `{"from":1,"to":2,"query":{"kind":"grid"}}`,
		`{"query":{"kind":"grid"},"from":1,"to":2,"from":3}`, `{"Query":{"kind":"grid"},"from":1,"to":2}`,
		`{"query":{"kind":"grid","bogus":1},"from":1,"to":2}`, `{"query":{"kind":"grid"},"from":1.5,"to":2}`,
		`{"query":{"kind":"grid"},"from":1,"to":2}x`, `{"query":{"kind":"grid"},"from":1,"to":2`,
		`{"query":{"kind":"grid"},"from":1,"to":2,"workers":null}`,
	} {
		checkTaskRequestDecode(t, []byte(in))
	}
}

// checkTaskRequestDecode holds dist.DecodeTaskRequest to the strict decoder
// on one input: the same verdict, error text and values.
func checkTaskRequestDecode(t *testing.T, b []byte) {
	t.Helper()
	var got, want dist.TaskRequest
	gerr := dist.DecodeTaskRequest(b, nil, &got)
	werr := wire.DecodeStrict(bytes.NewReader(b), &want)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%q: reader error %v, strict decoder error %v", b, gerr, werr)
	}
	if gerr == nil && !query.SameWire(got, want) {
		t.Fatalf("%q: reader value differs from the strict decoder\n got: %+v\nwant: %+v", b, got, want)
	}
}
