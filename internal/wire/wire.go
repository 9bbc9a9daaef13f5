// Package wire scans the canonical JSON subset that clients and this
// repository's own encoders emit, so hot-path request bodies decode
// without reflection. It is the decode-side mirror of the serve layer's
// hand renderer: every caller keeps its encoding/json call as the
// fallback for anything outside the subset, so an accepted body decodes
// to exactly the value encoding/json would produce and every other body
// takes the old path unchanged.
//
// The subset is a single top-level object whose keys are exact,
// escape-free names; values are escape-free printable-ASCII strings,
// numbers in JSON's grammar (parsed with strconv.ParseFloat(s, 64) or,
// for integers without fraction or exponent, strconv.ParseInt(s, 10,
// 0) — the calls encoding/json makes), true and false, arrays of
// numbers and arrays of those arrays; JSON whitespace may surround any
// token and nothing but whitespace may follow the object. Escapes,
// non-ASCII bytes, null, nested objects and out-of-range numbers are
// outside it: a Scanner reports them as not-ok and the caller falls
// back.
package wire

import "strconv"

// Scanner walks one object. Reset it on a body, iterate its keys with
// Next, read each value with the typed reader matching the key, and
// finish with Done. Any byte outside the subset latches the scanner
// into a failed state: every later call returns zero values and Done
// reports false. A Scanner owns scratch space for Rows, so reusing one
// (through a sync.Pool, say) makes decoding allocation-free apart from
// the strings and slices the caller keeps.
type Scanner struct {
	b      []byte
	i      int
	bad    bool
	opened bool // the top-level '{' was consumed
	closed bool // the matching '}' was consumed
	key    []byte

	flat []float64 // Rows scratch: every number, row after row
	ends []int     // Rows scratch: end offset of each row in flat
}

// Reset points the scanner at a new body, keeping its scratch space.
func (s *Scanner) Reset(b []byte) {
	s.b, s.i, s.bad, s.opened, s.closed, s.key = b, 0, false, false, false, nil
}

func (s *Scanner) fail() { s.bad = true }

func (s *Scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c after optional whitespace.
func (s *Scanner) expect(c byte) bool {
	if s.peek() != c {
		s.fail()
		return false
	}
	s.i++
	return true
}

// Next advances to the object's next member and reports whether there
// is one; Key then names it and exactly one value reader must follow.
// It returns false at the closing brace and on any failure.
func (s *Scanner) Next() bool {
	if s.bad || s.closed {
		return false
	}
	if !s.opened {
		if !s.expect('{') {
			return false
		}
		s.opened = true
		if s.peek() == '}' {
			s.i++
			s.closed = true
			return false
		}
	} else {
		switch s.peek() {
		case '}':
			s.i++
			s.closed = true
			return false
		case ',':
			s.i++
		default:
			s.fail()
			return false
		}
	}
	s.ws()
	s.key = s.str()
	if s.bad || !s.expect(':') {
		return false
	}
	s.ws()
	return true
}

// Key is the current member's name. The bytes alias the body.
func (s *Scanner) Key() []byte { return s.key }

// Done reports whether the whole body was one object inside the subset:
// no failure, the object closed, and only whitespace after it.
func (s *Scanner) Done() bool {
	if s.bad || !s.closed {
		return false
	}
	s.ws()
	return s.i == len(s.b)
}

// str consumes an escape-free printable-ASCII string at the cursor and
// returns its contents, aliasing the body.
func (s *Scanner) str() []byte {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		s.fail()
		return nil
	}
	start := s.i + 1
	for j := start; j < len(s.b); j++ {
		c := s.b[j]
		if c == '"' {
			s.i = j + 1
			return s.b[start:j]
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	s.fail()
	return nil
}

// String reads a string value. The bytes alias the body; convert them
// with string() to keep them.
func (s *Scanner) String() []byte {
	if s.bad {
		return nil
	}
	return s.str()
}

// number consumes a token matching JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// was an integer (no fraction, no exponent).
func (s *Scanner) number() (tok []byte, integer bool) {
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		for j++; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		}
	default:
		s.fail()
		return nil, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		integer = false
		j++
		if j >= len(b) || b[j] < '0' || b[j] > '9' {
			s.fail()
			return nil, false
		}
		for j++; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		integer = false
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j >= len(b) || b[j] < '0' || b[j] > '9' {
			s.fail()
			return nil, false
		}
		for j++; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		}
	}
	tok, s.i = b[s.i:j], j
	return tok, integer
}

// Float reads a number as a float64. A number ParseFloat rejects (one
// beyond float64's range) leaves the subset.
func (s *Scanner) Float() float64 {
	if s.bad {
		return 0
	}
	tok, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.fail()
		return 0
	}
	return f
}

// Int reads an integer that fits in an int. A fraction, an exponent or
// an out-of-range value leaves the subset.
func (s *Scanner) Int() int {
	if s.bad {
		return 0
	}
	tok, integer := s.number()
	if s.bad || !integer {
		s.fail()
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		s.fail()
		return 0
	}
	return int(n)
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.bad {
		return false
	}
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false
	}
	s.fail()
	return false
}

// Skip consumes a scalar value — string, number, true or false — whose
// key the caller does not need.
func (s *Scanner) Skip() {
	if s.bad || s.i >= len(s.b) {
		s.fail()
		return
	}
	switch c := s.b[s.i]; {
	case c == '"':
		s.str()
	case c == 't' || c == 'f':
		s.Bool()
	default:
		s.number()
	}
}

// Floats reads an array of numbers, appending them to dst. An empty
// array yields a non-nil empty slice, as encoding/json does.
func (s *Scanner) Floats(dst []float64) []float64 {
	if s.bad || !s.expect('[') {
		return dst
	}
	if dst == nil {
		dst = []float64{}
	}
	if s.peek() == ']' {
		s.i++
		return dst
	}
	for {
		s.ws()
		f := s.Float()
		if s.bad {
			return dst
		}
		dst = append(dst, f)
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return dst
		default:
			s.fail()
			return dst
		}
	}
}

// Rows reads an array of arrays of numbers into the scanner's scratch
// space, replacing whatever an earlier Rows call left there; commit it
// with Into once the whole body has been accepted.
func (s *Scanner) Rows() Rows {
	s.flat, s.ends = s.flat[:0], s.ends[:0]
	if s.bad || !s.expect('[') {
		return Rows{}
	}
	if s.peek() == ']' {
		s.i++
		return Rows{s: s}
	}
	for {
		s.ws()
		s.flat = s.Floats(s.flat)
		if s.bad {
			return Rows{}
		}
		s.ends = append(s.ends, len(s.flat))
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return Rows{s: s}
		default:
			s.fail()
			return Rows{}
		}
	}
}

// Rows is a parsed array of number arrays held in a Scanner's scratch
// space. The zero Rows means no array was read.
type Rows struct{ s *Scanner }

// Valid reports whether an array was read.
func (r Rows) Valid() bool { return r.s != nil }

// Into copies the rows into dst and returns the result. It reuses dst's
// backing arrays as far as their capacity reaches — so a pooled request
// decodes without allocating once warm — and, like encoding/json, makes
// every empty array a non-nil empty slice.
func (r Rows) Into(dst [][]float64) [][]float64 {
	ends := r.s.ends
	if len(ends) == 0 {
		if dst == nil {
			return [][]float64{}
		}
		return dst[:0]
	}
	if cap(dst) >= len(ends) {
		dst = dst[:len(ends)]
	} else {
		grown := make([][]float64, len(ends))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	lo := 0
	for k, hi := range ends {
		row := append(dst[k][:0], r.s.flat[lo:hi]...)
		if row == nil {
			row = []float64{}
		}
		dst[k], lo = row, hi
	}
	return dst
}
