package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The result appenders (append.go) are checked against encoding/json: for
// every result wire type, values filled field by field through reflection
// must append to exactly the bytes a json.Encoder with HTML escaping off
// writes. Types that carry a MarshalJSON of their own (TaskResult,
// ResultSet) are encoded through a method-less defined copy, so the oracle
// walks the struct by reflection instead of calling back into the appender.

type (
	plainResultSet  ResultSet
	plainStreamDone StreamDone
)

// oracleFloats are the wire.Float edge values: signed zeros, subnormals,
// the 1e-6 and 1e21 notation boundaries of encoding/json, extremes and the
// non-finite values the wire spells as strings.
var oracleFloats = []float64{
	math.Pi, 0, math.Copysign(0, -1), -1.5, 1e-7, 9.999999999999999e-7, 1e-6,
	math.SmallestNonzeroFloat64, -4.9406564584124654e-324, 2.2250738585072009e-308,
	1e20, 9.999999999999999e20, 1e21, -1e21, 1.2345e22, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 983.04e-3,
}

// oracleStrings exercise every escaping rule: HTML characters (verbatim
// with escaping off), the JSON short escapes, other control bytes, the
// U+2028/U+2029 separators, invalid UTF-8 and plain multi-byte text.
var oracleStrings = []string{
	"grid[7]:loss=50,payload=10,bo=6", "<b>&amp;</b>", "line\u2028sep\u2029",
	"bad\xff\xfeutf8\xc3", "q\"b\\s\t\n\r\b\f\x00\x1f\x7f", "héllo ✓ 🚀", "",
}

var oracleInts = []int64{7, 0, -1, 1<<53 + 1, math.MaxInt64, math.MinInt64, 42}

var floatType = reflect.TypeOf(Float(0))

// fillMode selects how filler treats pointers and slices.
type fillMode int

const (
	fillFull   fillMode = iota // every pointer set, every slice 1-3 elements, non-zero scalars
	fillEmpty                  // every pointer set, every slice empty but non-nil, zero scalars
	fillRandom                 // each pointer, slice and scalar drawn at random
)

// filler sets every exported field of a value by reflection, cycling
// through the edge pools so each leaf gets a different edge value.
type filler struct {
	mode fillMode
	rng  *rand.Rand
	n    int
}

func newFiller(mode fillMode, seed int64) *filler {
	return &filler{mode: mode, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next leaf index: sequential for the deterministic
// modes, random otherwise.
func (f *filler) next() int {
	f.n++
	if f.mode == fillRandom {
		return f.rng.Intn(1 << 20)
	}
	return f.n
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if f.mode == fillRandom && f.rng.Intn(3) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Slice:
		n := 0
		switch f.mode {
		case fillFull:
			n = 1 + f.n%3
		case fillRandom:
			n = f.rng.Intn(5) - 1 // -1 ⇒ nil
		}
		if n < 0 {
			v.SetZero()
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		if f.mode != fillEmpty && v.Type().Key().Kind() == reflect.String {
			for i := 0; i < 2; i++ {
				k := reflect.New(v.Type().Key()).Elem()
				f.fill(k)
				e := reflect.New(v.Type().Elem()).Elem()
				f.fill(e)
				m.SetMapIndex(k, e)
			}
		}
		v.Set(m)
	case reflect.String:
		if f.mode != fillEmpty {
			v.SetString(oracleStrings[f.next()%len(oracleStrings)])
		}
	case reflect.Bool:
		if f.mode != fillEmpty {
			v.SetBool(f.mode == fillFull || f.next()%2 == 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if f.mode != fillEmpty {
			x := oracleInts[f.next()%len(oracleInts)]
			for v.OverflowInt(x) {
				x /= 1 << 16
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if f.mode != fillEmpty {
			x := uint64(f.next()*2654435761) | 1
			for v.OverflowUint(x) {
				x >>= 8
			}
			v.SetUint(x)
		}
	case reflect.Float32, reflect.Float64:
		if f.mode == fillEmpty {
			return
		}
		x := oracleFloats[f.next()%len(oracleFloats)]
		// Plain float64 fields (foreign report types, TaskLine.WallMS) must
		// stay finite: encoding/json refuses NaN and ±Inf for them.
		for v.Type() != floatType && (math.IsInf(x, 0) || math.IsNaN(x)) {
			x = oracleFloats[f.next()%len(oracleFloats)]
		}
		v.SetFloat(x)
	}
}

// FillWire fills the value ptr points to for the external-package oracle
// tests (the dist.TaskLine check): mode is 0 full, 1 empty, 2 random.
func FillWire(ptr any, mode int, seed int64) {
	newFiller(fillMode(mode), seed).fill(reflect.ValueOf(ptr).Elem())
}

// OracleJSON is encoding/json's compact, HTML-escaping-off encoding of v
// without the trailing newline: the reference every appender must match.
func OracleJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// appendCase is one wire type under the oracle: how to make a fresh value,
// what the oracle encodes for it, and how the appender writes it.
type appendCase struct {
	name   string
	fresh  func() any // pointer to a zero value of the type
	plain  func(v any) any
	append func(v any, dst []byte) ([]byte, error)
}

// caseOf builds an appendCase for a type with a plain appendJSON.
func caseOf[T any](name string, app func(*T, []byte) []byte) appendCase {
	return appendCase{
		name:   name,
		fresh:  func() any { return new(T) },
		plain:  func(v any) any { return v },
		append: func(v any, dst []byte) ([]byte, error) { return app(v.(*T), dst), nil },
	}
}

func appendCases() []appendCase {
	return []appendCase{
		caseOf("ContStatsWire", (*ContStatsWire).appendJSON),
		caseOf("BreakdownWire", (*BreakdownWire).appendJSON),
		caseOf("StateTimesWire", (*StateTimesWire).appendJSON),
		caseOf("MetricsWire", (*MetricsWire).appendJSON),
		caseOf("CaseStudyResultWire", (*CaseStudyResultWire).appendJSON),
		caseOf("SimResultWire", (*SimResultWire).appendJSON),
		caseOf("ReplicaStatWire", (*ReplicaStatWire).appendJSON),
		caseOf("EnergyCurveWire", (*EnergyCurveWire).appendJSON),
		caseOf("ThresholdWire", (*ThresholdWire).appendJSON),
		caseOf("PayloadSeriesWire", (*PayloadSeriesWire).appendJSON),
		caseOf("LifetimeCurvePointWire", (*LifetimeCurvePointWire).appendJSON),
		caseOf("LifetimeResultWire", (*LifetimeResultWire).appendJSON),
		caseOf("ReplicaSummaryWire", (*ReplicaSummaryWire).appendJSON),
		caseOf("LifetimeSummaryWire", (*LifetimeSummaryWire).appendJSON),
		caseOf("TaskSpanWire", (*TaskSpanWire).appendJSON),
		caseOf("PlanTraceWire", (*PlanTraceWire).appendJSON),
		{
			name:   "StreamDone",
			fresh:  func() any { return new(StreamDone) },
			plain:  func(v any) any { return (*plainStreamDone)(v.(*StreamDone)) },
			append: func(v any, dst []byte) ([]byte, error) { return v.(*StreamDone).AppendJSON(dst), nil },
		},
		{
			name:   "TaskResult",
			fresh:  func() any { return new(TaskResult) },
			plain:  func(v any) any { return (*plainTaskResult)(v.(*TaskResult)) },
			append: func(v any, dst []byte) ([]byte, error) { return v.(*TaskResult).AppendJSON(dst) },
		},
		{
			// ResultSet's elements encode through TaskResult.MarshalJSON in the
			// oracle too; the TaskResult case above pins those bytes, so this
			// case pins the framing around them.
			name:   "ResultSet",
			fresh:  func() any { return new(ResultSet) },
			plain:  func(v any) any { return (*plainResultSet)(v.(*ResultSet)) },
			append: func(v any, dst []byte) ([]byte, error) { return v.(*ResultSet).AppendJSON(dst) },
		},
	}
}

// checkAppend compares the appender against the oracle for one value,
// appending after a prefix to prove the appender leaves dst's existing
// bytes alone.
func checkAppend(t *testing.T, c appendCase, label string, v any) {
	t.Helper()
	want, werr := OracleJSON(c.plain(v))
	prefix := []byte("prefix:")
	got, gerr := c.append(v, append([]byte(nil), prefix...))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s %s: oracle error %v, appender error %v", c.name, label, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s %s: appender clobbered the prefix: %q", c.name, label, got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("%s %s: appender bytes differ from encoding/json\n got: %s\nwant: %s", c.name, label, got, want)
	}
}

// TestAppendJSONMatchesEncodingJSON is the oracle test of the result
// writer. Every result wire type is filled by reflection in three shapes —
// every field set to a non-zero edge value, every pointer set with empty
// slices and zero scalars, and seeded random mixes including nil — plus the
// zero value, and every TaskResult payload kind on its own. A field added
// to a wire struct but not to its appendJSON fails here.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, c := range appendCases() {
		checkAppend(t, c, "zero", c.fresh())
		for _, mode := range []fillMode{fillFull, fillEmpty} {
			for seed := int64(0); seed < 3; seed++ {
				v := c.fresh()
				f := newFiller(mode, seed)
				f.n = int(seed) * 5 // shift the edge-value cycle per run
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

	// Every payload kind alone on a TaskResult, the shapes the plans emit.
	var tc appendCase
	for _, c := range appendCases() {
		if c.name == "TaskResult" {
			tc = c
		}
	}
	rt := reflect.TypeOf(TaskResult{})
	for i := 0; i < rt.NumField(); i++ {
		fld := rt.Field(i)
		if !fld.IsExported() || (fld.Type.Kind() != reflect.Pointer && fld.Type.Kind() != reflect.Slice) {
			continue
		}
		for seed := int64(0); seed < 4; seed++ {
			tr := &TaskResult{Index: int(seed), Label: oracleStrings[seed]}
			newFiller(fillFull, seed).fill(reflect.ValueOf(tr).Elem().Field(i))
			checkAppend(t, tc, fld.Name+" payload", tr)
		}
	}
}

// TestAppendJSONMatchesEncodingJSONOnRealResults runs the oracle over real
// plan output: a grid, replicas with their summary, lifetime with its
// summary, a case study, sweeps and a traced run.
func TestAppendJSONMatchesEncodingJSONOnRealResults(t *testing.T) {
	cases := appendCases()
	byName := map[string]appendCase{}
	for _, c := range cases {
		byName[c.name] = c
	}
	for _, q := range realQueries() {
		rs, err := Run(t.Context(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Kind, err)
		}
		checkAppend(t, byName["ResultSet"], string(q.Kind), rs)
		for i := range rs.Results {
			checkAppend(t, byName["TaskResult"], string(q.Kind), &rs.Results[i])
		}
		done := &StreamDone{Done: true, Count: len(rs.Results), Summary: rs.Summary, LifetimeSummary: rs.LifetimeSummary, Trace: rs.Trace}
		checkAppend(t, byName["StreamDone"], string(q.Kind), done)
	}
}

// realQueries are small queries of every payload shape the plans emit: a
// grid, replicas with their summary, lifetime with its summary, a case
// study, the sweeps and a traced run.
func realQueries() []Query {
	seed := int64(5)
	return []Query{
		{Kind: KindGrid, Params: quickParams(), Losses: &Axis{Values: []Float{50, 70, 200}}, Payloads: &IntAxis{Values: []int{20, 100}}},
		{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intp(10), Superframes: intp(2), Seed: &seed}, Replicas: 3, Trace: true},
		{Kind: KindLifetime, Sim: &SimConfigWire{Nodes: intp(4), Superframes: intp(1), Seed: &seed},
			Lifetime: &LifetimeWire{CapacityJ: floatp(0.05), EpochSuperframes: intp(2), MaxEpochs: intp(16)}, Replicas: 2},
		{Kind: KindCaseStudy, Params: quickParams(), Config: &CaseStudyConfigWire{LossGridPoints: intp(5)}},
		{Kind: KindPathLossSweep, Params: quickParams(), Losses: &Axis{Values: []Float{55, 90}}},
		{Kind: KindThresholds, Params: quickParams(), Losses: &Axis{Values: []Float{55, 70, 90}}},
		{Kind: KindPayloadSweep, Params: quickParams(), Payloads: &IntAxis{Values: []int{20, 60}}},
	}
}

func intp(v int) *int         { return &v }
func floatp(v float64) *Float { f := Float(v); return &f }
