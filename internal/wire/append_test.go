package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// edgeFloats spans the float shapes the appenders must reproduce: signed
// zeros, subnormals, the shortest-form boundaries encoding/json switches
// notation at (1e-6, 1e21), extremes and the non-finite values.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0, math.Pi, -2.5e-3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	1e-6, 9.999999999999999e-7, 1e-7, 1.5e-10, 1e20, 1e21, 9.999999999999999e20, 1.2345e21, -1e21,
	math.MaxFloat64, -math.MaxFloat64, 123456789012345680, 4.2563e-3, 983.04e-3,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestAppendFloatMatchesContract pins AppendFloat to the shortest-round-trip
// contract (strconv 'g', -1) and the named non-finite strings, and checks it
// appends in place without disturbing the prefix.
func TestAppendFloatMatchesContract(t *testing.T) {
	for _, v := range edgeFloats {
		var want string
		switch {
		case math.IsInf(v, 1):
			want = `"+Inf"`
		case math.IsInf(v, -1):
			want = `"-Inf"`
		case math.IsNaN(v):
			want = `"NaN"`
		default:
			want = strconv.FormatFloat(v, 'g', -1, 64)
		}
		got := AppendFloat([]byte("x:"), Float(v))
		if string(got) != "x:"+want {
			t.Errorf("AppendFloat(%v) = %q, want %q", v, got, "x:"+want)
		}
		m, _ := Float(v).MarshalJSON()
		if string(m) != want {
			t.Errorf("MarshalJSON(%v) = %q, want %q", v, m, want)
		}
	}
}

// TestAppendStdFloatMatchesEncodingJSON checks the plain-float64 appender
// against encoding/json on every finite edge value.
func TestAppendStdFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range edgeFloats {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendStdFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendStdFloat(%v) = %s, want %s", v, got, want)
		}
	}
}

// TestAppendStringMatchesEncodingJSON checks AppendString against a
// json.Encoder with HTML escaping off over every single byte, the
// separator runes, invalid UTF-8 and mixed strings.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "grid[0]:loss=50,payload=10,bo=6", "<a href=\"x\">&amp;</a>",
		"line\u2028sep\u2029para", "bad\xffutf8\xc3", "\xed\xa0\x80surrogate",
		"tab\tnl\ncr\rbs\\q\"bell\x07del\x7f", "héllo wörld ✓ 🚀", "\x00\x1f",
	}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	cases = append(cases, strings.Repeat("<>&\u2028", 50))
	for _, s := range cases {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendersAllocFree pins the append path: writing into a buffer with
// room allocates nothing.
func TestAppendersAllocFree(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		b := AppendFloat(buf[:0], Float(math.Pi))
		b = AppendFloat(b, Float(math.Inf(1)))
		b = AppendStdFloat(b, 1.5e-9)
		b = AppendString(b, "grid[12]:loss=50,payload=10,bo=6\u2028<&>")
		_ = b
	})
	if allocs != 0 {
		t.Fatalf("appenders allocated %v per run, want 0", allocs)
	}
}
