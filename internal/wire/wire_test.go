package wire

import (
	"encoding/json"
	"math"
	"testing"
)

// probe carries one field of every kind the scanner reads.
type probe struct {
	S string      `json:"s"`
	N int         `json:"n"`
	F float64     `json:"f"`
	B bool        `json:"b"`
	V []float64   `json:"v"`
	M [][]float64 `json:"m"`
}

// scanProbe is the fast decoder a call site would write for probe.
func scanProbe(body []byte) (probe, bool) {
	var s Scanner
	s.Reset(body)
	var p probe
	var rows Rows
	for s.Next() {
		switch string(s.Key()) {
		case "s":
			p.S = string(s.String())
		case "n":
			p.N = s.Int()
		case "f":
			p.F = s.Float()
		case "b":
			p.B = s.Bool()
		case "v":
			p.V = s.Floats(nil)
		case "m":
			rows = s.Rows()
		default:
			return probe{}, false
		}
	}
	if !s.Done() {
		return probe{}, false
	}
	if rows.Valid() {
		p.M = rows.Into(nil)
	}
	return p, true
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameProbe(a, b probe) bool {
	if a.S != b.S || a.N != b.N || math.Float64bits(a.F) != math.Float64bits(b.F) || a.B != b.B ||
		!sameFloats(a.V, b.V) || (a.M == nil) != (b.M == nil) || len(a.M) != len(b.M) {
		return false
	}
	for i := range a.M {
		if !sameFloats(a.M[i], b.M[i]) {
			return false
		}
	}
	return true
}

// checkProbe asserts the scanner's contract on one body: whatever it
// accepts, json.Unmarshal accepts too and decodes to the same bits.
func checkProbe(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := scanProbe(body)
	if !ok {
		return false
	}
	var want probe
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	if !sameProbe(got, want) {
		t.Fatalf("scanner decoded %q to %+v, encoding/json to %+v", body, got, want)
	}
	return true
}

func TestScannerSubset(t *testing.T) {
	cases := []struct {
		body   string
		accept bool
	}{
		{`{}`, true},
		{" \t\r\n{ \t\r\n\"s\" \t\r\n: \t\r\n\"x\" \t\r\n} \t\r\n", true},
		{`{"s":"ects","n":-12,"f":-0.5e-3,"b":true,"v":[1,2.5,-0],"m":[[1],[],[2,3]]}`, true},
		{`{"v":[],"m":[]}`, true},
		{`{"n":1,"n":2,"m":[[1,2,3]],"m":[[4]]}`, true}, // the last duplicate wins
		{`{"f":-0}`, true},
		{`{"f":1E+2}`, true},
		{`{"n":-0}`, true},
		{`{"f":1e-400}`, true}, // underflows to zero without error, as in encoding/json
		{``, false},
		{`[]`, false},
		{`{`, false},
		{`{"s":"x"`, false},
		{`{"s":"x",}`, false},
		{`{"s":"x"}{}`, false},    // trailing data
		{`{"s":"x"} x`, false},    // trailing data
		{`{"s":"x"}}`, false},     // a stray brace the decoder's More would forgive
		{`{"s":"\u0041"}`, false}, // escapes
		{`{"s":"é"}`, false},      // non-ASCII
		{"{\"s\":\"\x7f\"}", false},
		{"{\"s\":\"a\tb\"}", false},
		{`{"s":null}`, false},
		{`{"S":"x"}`, false}, // case-folded key
		{`{"z":1}`, false},   // unknown key
		{`{"f":1e400}`, false},
		{`{"f":01}`, false}, // leading zero
		{`{"f":.5}`, false},
		{`{"f":1.}`, false},
		{`{"f":+1}`, false},
		{`{"f":1e}`, false},
		{`{"f":-}`, false},
		{`{"n":5e0}`, false}, // an integer field takes no exponent
		{`{"n":1.0}`, false},
		{`{"n":9223372036854775808}`, false},
		{`{"b":tru}`, false},
		{`{"b":truex}`, false},
		{`{"v":[1,]}`, false},
		{`{"v":[1 2]}`, false},
		{`{"v":[null]}`, false},
		{`{"m":[1]}`, false},
		{`{"m":[[1],]}`, false},
		{`{"s":{}}`, false},
	}
	for _, c := range cases {
		if got := checkProbe(t, []byte(c.body)); got != c.accept {
			t.Errorf("%q: accepted = %v, want %v", c.body, got, c.accept)
		}
	}
}

func TestRowsIntoReusesAndMatchesEncoding(t *testing.T) {
	var s Scanner
	s.Reset([]byte(`{"m":[[1,2],[],[3]]}`))
	s.Next()
	rows := s.Rows()
	if s.Next() || !s.Done() {
		t.Fatal("body not accepted")
	}
	// A pooled destination: two stale rows with spare capacity.
	backing := [][]float64{make([]float64, 4, 8), nil, nil}
	dst := rows.Into(backing[:0])
	if len(dst) != 3 || !sameFloats(dst[0], []float64{1, 2}) || !sameFloats(dst[1], []float64{}) ||
		!sameFloats(dst[2], []float64{3}) {
		t.Fatalf("Into = %v", dst)
	}
	if &dst[0][0] != &backing[0][:1][0] {
		t.Error("Into did not reuse the stale row's backing array")
	}
	// Growing past the destination's capacity keeps the stale rows for
	// reuse and yields the same values.
	small := [][]float64{make([]float64, 0, 4)}
	if got := rows.Into(small[:0]); len(got) != 3 || &got[0][:1][0] != &small[0][:1][0] {
		t.Errorf("grown Into = %v, lost the stale row", got)
	}
	// An empty array is a non-nil empty slice, whatever the destination.
	s.Reset([]byte(`{"m":[]}`))
	s.Next()
	empty := s.Rows()
	if got := empty.Into(nil); got == nil || len(got) != 0 {
		t.Errorf("Into(nil) of [] = %#v, want non-nil empty", got)
	}
}

func TestSkipScalars(t *testing.T) {
	for _, body := range []string{
		`{"a":"x","b":-1.5e3,"c":true,"d":false,"status":"decided"}`,
		`{"a":0}`,
	} {
		var s Scanner
		s.Reset([]byte(body))
		for s.Next() {
			s.Skip()
		}
		if !s.Done() {
			t.Errorf("%q: Skip did not consume every scalar", body)
		}
	}
	for _, body := range []string{`{"a":[1]}`, `{"a":null}`, `{"a":}`, `{"a":-x}`} {
		var s Scanner
		s.Reset([]byte(body))
		for s.Next() {
			s.Skip()
		}
		if s.Done() {
			t.Errorf("%q: Skip accepted a value outside its scalars", body)
		}
	}
}

// FuzzScanner diffs the scanner against encoding/json on arbitrary
// bodies: no panic, and every accepted body decodes to the same bits.
func FuzzScanner(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkProbe(t, body)
	})
}
