// Package wire holds the JSON primitives shared by every serialized
// surface of the repository — the HTTP service (internal/service), the
// query results (internal/query), the scenario golden files
// (internal/scenario) and their CLI front-ends. The types here guarantee
// byte-stable, bit-exact round-trips: encoding a value and decoding it back
// reproduces the original float64 bits, and encoding the same value twice
// produces the same bytes, which is what lets golden files and result bodies
// be compared with bytes.Equal.
//
// The byte contract: finite floats are written in the shortest form that
// parses back to the same bits (strconv 'g', precision -1); non-finite
// floats are the strings "+Inf", "-Inf" and "NaN"; strings are escaped
// exactly as encoding/json escapes them with HTML escaping off (quote,
// backslash and control characters, U+2028/U+2029, and \ufffd for invalid
// UTF-8). AppendFloat and AppendString write those bytes into a caller's
// buffer without allocating; they are the primitives the reflection-free
// result encoders of internal/query build on, and encoding/json — through
// Float.MarshalJSON, which is a thin wrapper — is only their test oracle.
// Scanner (read.go) reads those bytes back without reflection, for the
// result and request readers of internal/query and internal/dist;
// DecodeStrict is the strict encoding/json decode those request readers
// fall back to, and the one the request surfaces answer with.
package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Float is a float64 that survives JSON round-trips bit-exactly, including
// the non-finite values the model uses for out-of-range nodes (+Inf energy
// per bit), which encoding/json rejects. Finite values are emitted with the
// shortest representation that parses back to the same bits; non-finite
// values are emitted as the strings "+Inf", "-Inf" and "NaN".
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) { return AppendFloat(nil, f), nil }

// AppendFloat appends the JSON form of f to dst: the shortest
// representation that parses back to the same bits for finite values, the
// strings "+Inf", "-Inf" and "NaN" otherwise.
func AppendFloat(dst []byte, f Float) []byte {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// AppendStdFloat appends a finite float64 exactly as encoding/json writes a
// plain float64 field: fixed notation, switching to an exponent (with a
// one-digit negative exponent, "1e-7" rather than "1e-07") below 1e-6 and
// from 1e21 on. It is for wire fields typed float64 rather than Float;
// callers must reject non-finite values, which encoding/json refuses.
func AppendStdFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, byte for byte what a
// json.Encoder with SetEscapeHTML(false) writes: quote and backslash are
// backslash-escaped, control characters use the short escapes where JSON
// has them and \u00XX otherwise, U+2028 and U+2029 are escaped, invalid
// UTF-8 bytes become \ufffd, and everything else (including <, > and &) is
// copied verbatim.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = Float(math.Inf(1))
			return nil
		case "-Inf":
			*f = Float(math.Inf(-1))
			return nil
		case "NaN":
			*f = Float(math.NaN())
			return nil
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("invalid float %q", s)
		}
		*f = Float(v)
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Floats converts a float64 slice to the exact-round-trip wire type.
func Floats(xs []float64) []Float {
	out := make([]Float, len(xs))
	for i, x := range xs {
		out[i] = Float(x)
	}
	return out
}

// Float64s converts back.
func Float64s(xs []Float) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
