package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the read side of the byte contract: a Scanner that walks one
// JSON document front to back without reflection. Its readers accept what
// the writers above produce and decode it exactly as encoding/json does —
// floats as Float.UnmarshalJSON reads them, strings unescaped byte for byte
// like encoding/json (\u surrogate pairs joined, lone surrogates and invalid
// UTF-8 bytes turned into U+FFFD). Anything else — invalid JSON, or valid
// JSON in a shape the caller does not read (an unknown, repeated or
// out-of-order key, a value of another type) — stops the scan with
// ErrShape. Callers answer ErrShape by decoding the same bytes with
// encoding/json, so the inputs they accept and the values they produce stay
// encoding/json's, while the bytes the writers emit take the fast path.

// ErrShape reports input a Scanner does not read: invalid JSON, or JSON
// outside the shape being read.
var ErrShape = errors.New("wire: input outside the scanner's shape")

// maxDepth bounds the nesting Skip follows, as encoding/json bounds its own.
const maxDepth = 10000

// Scanner reads one JSON document. Errors are sticky: after the first, every
// read returns a zero value and Finish reports ErrShape. The zero value is
// ready after Reset.
type Scanner struct {
	data    []byte
	pos     int
	err     error
	scratch []byte // unescaped string bytes
}

// Reset starts reading data, keeping the scratch buffer for reuse.
func (s *Scanner) Reset(data []byte) {
	s.data, s.pos, s.err = data, 0, nil
	s.scratch = s.scratch[:0]
}

// Fail stops the scan with ErrShape.
func (s *Scanner) Fail() {
	if s.err == nil {
		s.err = ErrShape
	}
}

// Finish ends the document: only whitespace may follow the value read.
func (s *Scanner) Finish() error {
	s.ws()
	if s.pos != len(s.data) {
		s.Fail()
	}
	return s.err
}

func (s *Scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte: 0 at the end of the data
// or after an error.
func (s *Scanner) peek() byte {
	if s.err != nil {
		return 0
	}
	s.ws()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// expect consumes c, failing when something else comes next.
func (s *Scanner) expect(c byte) bool {
	if s.peek() != c {
		s.Fail()
		return false
	}
	s.pos++
	return true
}

// literal consumes the keyword lit, failing when something else comes next.
func (s *Scanner) literal(lit string) bool {
	if s.peek() == lit[0] && len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
		s.pos += len(lit)
		return true
	}
	s.Fail()
	return false
}

// Keys lists a struct's JSON keys in the order its writer emits them.
type Keys []string

// Members iterates the members of one object; see Scanner.Object.
type Members struct {
	s    *Scanner
	keys Keys
	next int // index into keys the next key may match from
	n    int // members read
	key  string
}

// Object starts reading an object whose keys come from keys, in that order
// and each at most once — what the matching writer emits, omitted fields
// allowed. Any other key stops the scan.
func (s *Scanner) Object(keys Keys) Members {
	s.expect('{')
	return Members{s: s, keys: keys}
}

// Next advances to the next member and reports whether there is one. After
// it returns true, Key names the member and the scanner stands at its
// value, which the caller must read before calling Next again.
func (m *Members) Next() bool {
	s := m.s
	c := s.peek()
	if s.err != nil {
		return false
	}
	if c == '}' {
		s.pos++
		return false
	}
	if m.n > 0 && !s.expect(',') {
		return false
	}
	raw := s.key()
	if !s.expect(':') {
		return false
	}
	for i := m.next; i < len(m.keys); i++ {
		if string(raw) == m.keys[i] {
			m.key, m.next = m.keys[i], i+1
			m.n++
			return true
		}
	}
	s.Fail()
	return false
}

// Key is the name of the current member, one of the Keys strings.
func (m *Members) Key() string { return m.key }

// key reads an object key without unescaping: a key with an escape or a
// control byte fails (no writer emits one).
func (s *Scanner) key() []byte {
	if !s.expect('"') {
		return nil
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1]
		case c == '\\' || c < 0x20:
			s.Fail()
			return nil
		}
	}
	s.Fail()
	return nil
}

// Elems iterates the elements of one array; see Scanner.Array.
type Elems struct {
	s *Scanner
	n int
}

// Array starts reading an array.
func (s *Scanner) Array() Elems {
	s.expect('[')
	return Elems{s: s}
}

// Next advances to the next element and reports whether there is one; the
// caller reads it before calling Next again.
func (e *Elems) Next() bool {
	s := e.s
	c := s.peek()
	if s.err != nil {
		return false
	}
	if c == ']' {
		s.pos++
		return false
	}
	if e.n > 0 && !s.expect(',') {
		return false
	}
	e.n++
	return true
}

// Null consumes a null if one comes next and reports whether it did.
func (s *Scanner) Null() bool {
	if s.peek() == 'n' && len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.peek() == 't' {
		return s.literal("true")
	}
	s.literal("false")
	return false
}

// number consumes a JSON number literal and returns its bytes; integral
// reports that it has neither a fraction nor an exponent.
func (s *Scanner) number() (lit []byte, integral bool) {
	s.peek()
	if s.err != nil {
		return nil, false
	}
	d, i := s.data, s.pos
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.Fail()
		return nil, false
	}
	integral = true
	if i < len(d) && d[i] == '.' {
		i++
		integral = false
		if !digits() {
			s.Fail()
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		integral = false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.Fail()
			return nil, false
		}
	}
	lit, s.pos = d[s.pos:i], i
	return lit, integral
}

// Int64 reads an integer as encoding/json reads one into an int64: a
// number literal without fraction or exponent, in range.
func (s *Scanner) Int64() int64 {
	lit, integral := s.number()
	if !integral {
		s.Fail()
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		s.Fail()
		return 0
	}
	return v
}

// Int reads an integer into an int, failing where it does not fit.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.Fail()
		return 0
	}
	return int(v)
}

// Uint8 reads an integer as encoding/json reads one into a uint8: a number
// literal without sign, fraction or exponent, at most 255.
func (s *Scanner) Uint8() uint8 {
	lit, integral := s.number()
	if !integral {
		s.Fail()
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, 8)
	if err != nil {
		s.Fail()
		return 0
	}
	return uint8(v)
}

// StdFloat reads a float as encoding/json reads one into a plain float64: a
// number literal within range.
func (s *Scanner) StdFloat() float64 {
	lit, _ := s.number()
	if s.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.Fail()
		return 0
	}
	return v
}

// Float reads a Float exactly as Float.UnmarshalJSON does: a number literal,
// or a string holding "+Inf", "Inf", "-Inf", "NaN" or anything
// strconv.ParseFloat accepts.
func (s *Scanner) Float() Float {
	if s.peek() != '"' {
		return Float(s.StdFloat())
	}
	b := s.StringBytes()
	if s.err != nil {
		return 0
	}
	switch string(b) {
	case "+Inf", "Inf":
		return Float(math.Inf(1))
	case "-Inf":
		return Float(math.Inf(-1))
	case "NaN":
		return Float(math.NaN())
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		s.Fail()
		return 0
	}
	return Float(v)
}

// Text reads a string.
func (s *Scanner) Text() string { return string(s.StringBytes()) }

// StringBytes reads a string and returns its unescaped bytes, which alias
// the input or the scanner's scratch buffer: they are valid until the next
// read.
func (s *Scanner) StringBytes() []byte {
	if !s.expect('"') {
		return nil
	}
	d, start := s.data, s.pos
	i := start
	for i < len(d) {
		c := d[i]
		if c == '"' {
			s.pos = i + 1
			return d[start:i]
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	b := append(s.scratch[:0], d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			s.scratch = b
			return b
		case c < 0x20:
			s.Fail()
			return nil
		case c == '\\':
			if i+1 >= len(d) {
				s.Fail()
				return nil
			}
			i += 2
			switch d[i-1] {
			case '"', '\\', '/':
				b = append(b, d[i-1])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d[i:])
				if r < 0 {
					s.Fail()
					return nil
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// encoding/json joins a valid pair and turns any other
					// surrogate into U+FFFD, leaving a following escape
					// that does not pair to be read on its own.
					r2 := rune(-1)
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						r2 = hex4(d[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						b = utf8.AppendRune(b, pair)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
			default:
				s.Fail()
				return nil
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d[i:i+size]...)
			}
			i += size
		}
	}
	s.Fail()
	return nil
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Skip consumes one value of any type and returns its bytes (nil after a
// failure), for callers that hand the value to another decoder.
func (s *Scanner) Skip() []byte {
	s.peek()
	start := s.pos
	s.skip(0)
	if s.err != nil {
		return nil
	}
	return s.data[start:s.pos]
}

func (s *Scanner) skip(depth int) {
	if depth > maxDepth {
		s.Fail()
		return
	}
	switch s.peek() {
	case '{':
		s.pos++
		for n := 0; ; n++ {
			c := s.peek()
			if c == '}' {
				s.pos++
				return
			}
			if n > 0 && !s.expect(',') {
				return
			}
			s.StringBytes()
			s.expect(':')
			s.skip(depth + 1)
			if s.err != nil {
				return
			}
		}
	case '[':
		s.pos++
		for n := 0; ; n++ {
			c := s.peek()
			if c == ']' {
				s.pos++
				return
			}
			if n > 0 && !s.expect(',') {
				return
			}
			s.skip(depth + 1)
			if s.err != nil {
				return
			}
		}
	case '"':
		s.StringBytes()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}

// ErrTrailing reports data after the one document DecodeStrict reads.
var ErrTrailing = errors.New("wire: trailing data after the JSON document")

// DecodeStrict decodes the one JSON document r holds into dst the way the
// request surfaces (the HTTP service, wsn-query) take a request: unknown
// fields are rejected and only whitespace may follow the document. It
// returns io.EOF when r holds no document at all (nothing, or whitespace),
// ErrTrailing when anything follows the document, and r's or encoding/json's
// error otherwise. It is the fallback of the reflection-free request readers
// and their oracle.
func DecodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return ErrTrailing
	}
	return nil
}

// Replay returns a reader of b that then fails with err, or ends when err is
// nil: the bytes a reader that failed with err had yielded, replayed for a
// decoder that must see the same input and the same failure.
func Replay(b []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(b)
	}
	return io.MultiReader(bytes.NewReader(b), errReader{err})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
