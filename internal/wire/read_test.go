package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// readOne runs read over in and reports the value and whether the scanner
// took the whole input.
func readOne[T any](in string, read func(*Scanner) T) (T, bool) {
	var s Scanner
	s.Reset([]byte(in))
	v := read(&s)
	return v, s.Finish() == nil
}

// TestScannerFloatMatchesUnmarshalJSON holds Scanner.Float to
// Float.UnmarshalJSON: every input the scanner takes decodes to the same
// bits, and every input encoding/json takes for a Float the scanner takes
// too — numbers, quoted non-finite names, quoted numeric strings, escapes,
// out-of-range values and malformed literals alike.
func TestScannerFloatMatchesUnmarshalJSON(t *testing.T) {
	inputs := []string{
		"0", "-0", "1", "-1.5", "3.141592653589793", "1e-7", "1E+21", "9.999999999999999e20",
		"5e-324", "2.2250738585072009e-308", "1.7976931348623157e308", "1e400", "-1e400", "1e-400",
		`"+Inf"`, `"Inf"`, `"-Inf"`, `"NaN"`, `"inf"`, `"-infinity"`, `"nan"`, `"1.5"`, `"0x1p-2"`,
		`"1_000"`, `" 1"`, `""`, `"\u002b\u0049nf"`, `"1e400"`, `"x"`,
		"01", "-", "1.", ".5", "+1", "1e", "1e+", "--1", "0x10", "true", "null", "[]", "{}", `"`,
		" 7 ", "\t-2e-3\n",
	}
	for _, f := range []float64{math.Pi, 0.1, 1e21, 1e-6, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		inputs = append(inputs, string(AppendFloat(nil, Float(f))), string(AppendFloat(nil, Float(-f))))
	}
	for _, in := range inputs {
		got, ok := readOne(in, (*Scanner).Float)
		var want Float
		werr := json.Unmarshal([]byte(in), &want)
		if ok != (werr == nil) {
			t.Errorf("%q: scanner ok=%v, encoding/json error %v", in, ok, werr)
			continue
		}
		if ok && math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Errorf("%q: scanner %v, UnmarshalJSON %v", in, got, want)
		}
	}
}

// TestScannerStringMatchesEncodingJSON holds Scanner.Text to encoding/json's
// unescaping: short escapes, \u escapes with valid and broken surrogate
// pairs, invalid UTF-8 (each bad byte becomes U+FFFD), control bytes and
// unterminated strings, plus seeded random byte soup around quotes and
// backslashes.
func TestScannerStringMatchesEncodingJSON(t *testing.T) {
	inputs := []string{
		`""`, `"plain"`, `"q\"b\\s\/\b\f\n\r\t"`, `"\u0041\u00e9\u2028"`, `"\ud83d\ude80"`,
		`"\ud83d"`, `"\ud83dx"`, `"\ude80\ud83d"`, `"\ud83d\u0041"`, `"\ud83d\ud83d\ude80"`,
		`"\uD83D\uDE80"`, `"\u12"`, `"\uZZZZ"`, `"\ud83d\uZZZZ"`, `"\x"`, `"\`, `"abc`,
		"\"tab\there\"", "\"nul\x00\"", "\"bad\xff\xfe\xc3\"", "\"\xed\xa0\x80\"", "\"héllo ✓ 🚀\"",
		"\"\xef\xbf\xbd\"", `"a"b`, `x`, `1`,
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("\"\\uUdD80aAfF/bnrtx \x00\x1f\x7f\xc3\xa9\xed\xa0\xff")
	for i := 0; i < 20000; i++ {
		b := []byte{'"'}
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, string(append(b, '"')))
	}
	for _, in := range inputs {
		got, ok := readOne(in, (*Scanner).Text)
		var want string
		werr := json.Unmarshal([]byte(in), &want)
		if ok != (werr == nil) {
			t.Fatalf("%q: scanner ok=%v, encoding/json error %v", in, ok, werr)
		}
		if ok && got != want {
			t.Fatalf("%q: scanner %q, encoding/json %q", in, got, want)
		}
	}
}

// TestScannerIntMatchesEncodingJSON holds Scanner.Int64 to encoding/json's
// int64 decoding, including the range edges and non-integral literals it
// refuses.
func TestScannerIntMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		"0", "-0", "7", "-42", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "1.0", "1e2", "01", "-", `"1"`, "true",
	} {
		got, ok := readOne(in, (*Scanner).Int64)
		var want int64
		werr := json.Unmarshal([]byte(in), &want)
		if ok != (werr == nil) || (ok && got != want) {
			t.Errorf("%q: scanner %d ok=%v, encoding/json %d err %v", in, got, ok, want, werr)
		}
	}
}

// TestScannerSkipAndShape covers Skip, Bool, Null and the object and array
// iterators: a skipped value is returned whole, and malformed or
// out-of-shape input stops the scan instead of being read.
func TestScannerSkipAndShape(t *testing.T) {
	for _, in := range []string{
		`{}`, `[]`, `{"a":[1,{"b":null}],"c":"\"}"}`, `[true,false,null,-1.5e3,"x"]`, ` "s" `,
	} {
		got, ok := readOne(in, (*Scanner).Skip)
		if !ok || !json.Valid(got) {
			t.Errorf("Skip(%q) = %q, ok %v", in, got, ok)
		}
	}
	for _, in := range []string{`{"a"}`, `{"a":1,}`, `[1,]`, `[,1]`, `{1:2}`, `tru`, `nul`, `"x`, `[`, `{"a":1 "b":2}`} {
		if _, ok := readOne(in, (*Scanner).Skip); ok {
			t.Errorf("Skip(%q) took invalid JSON", in)
		}
	}
	deep := make([]byte, 0, 2*maxDepth+4)
	for i := 0; i <= maxDepth+1; i++ {
		deep = append(deep, '[')
	}
	if _, ok := readOne(string(deep), (*Scanner).Skip); ok {
		t.Error("Skip took nesting past maxDepth")
	}

	keys := Keys{"a", "b", "c"}
	readObj := func(s *Scanner) []string {
		var seen []string
		for m := s.Object(keys); m.Next(); {
			seen = append(seen, m.Key())
			s.Skip()
		}
		return seen
	}
	for in, want := range map[string]bool{
		`{"a":1,"c":2}`: true, `{}`: true, ` { "b" : [ ] } `: true,
		`{"c":1,"a":2}`: false, `{"a":1,"a":2}`: false, `{"A":1}`: false, `{"d":1}`: false,
		`{"a":1,}`: false, `{"\u0061":1}`: false, `[]`: false,
	} {
		if _, ok := readOne(in, readObj); ok != want {
			t.Errorf("object %q: ok %v, want %v", in, ok, want)
		}
	}
	if v, ok := readOne("true", (*Scanner).Bool); !ok || !v {
		t.Error("Bool(true)")
	}
	if v, ok := readOne("false", (*Scanner).Bool); !ok || v {
		t.Error("Bool(false)")
	}
	if _, ok := readOne("nil", (*Scanner).Bool); ok {
		t.Error("Bool took nil")
	}
	if v, ok := readOne("null", (*Scanner).Null); !ok || !v {
		t.Error("Null(null)")
	}
}

// TestScannerReadsAllocFree pins the fast path's cost: numbers, floats in
// both spellings, unescaped strings and object iteration allocate nothing.
func TestScannerReadsAllocFree(t *testing.T) {
	data := []byte(`{"a":-12,"b":3.25e-7,"c":"-Inf","d":"plain","e":[1,2,true]}`)
	keys := Keys{"a", "b", "c", "d", "e"}
	var s Scanner
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(data)
		for m := s.Object(keys); m.Next(); {
			switch m.Key() {
			case "a":
				s.Int64()
			case "b", "c":
				s.Float()
			case "d":
				s.StringBytes()
			default:
				s.Skip()
			}
		}
		if s.Finish() != nil {
			t.Fatal("scan failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("scanner reads allocated %v per document, want 0", allocs)
	}
}
