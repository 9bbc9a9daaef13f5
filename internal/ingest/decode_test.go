package ingest

import (
	"encoding/json"
	"math"
	"testing"
)

// decodeReference is the event decode both NDJSON readers ran before
// DecodeEvent: json.Unmarshal into a fresh Event, and a line that names
// no entity counts as damaged.
func decodeReference(line []byte) (Event, bool) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil || ev.Entity == "" {
		return ev, false
	}
	return ev, true
}

func sameEvent(a, b Event) bool {
	if a.Entity != b.Entity || a.T != b.T || a.Label != b.Label || a.Labeled != b.Labeled ||
		(a.Values == nil) != (b.Values == nil) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeEvent diffs DecodeEvent against the reference decode: the
// same lines count as damaged, every other line yields the same Event
// to the bit, and every line the fast path accepts is one
// json.Unmarshal accepts with the same result.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast Event
		if scanEvent(line, &fast) {
			var want Event
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
			}
			if !sameEvent(fast, want) {
				t.Fatalf("fast path decoded %q to %+v, encoding/json to %+v", line, fast, want)
			}
		} else if !sameEvent(fast, Event{}) {
			t.Fatalf("fast path declined %q but changed the event to %+v", line, fast)
		}
		want, wantOK := decodeReference(line)
		// A reused, dirty Event must not leak into the result.
		got := Event{Entity: "stale", T: 9, Values: []float64{9}, Label: 9, Labeled: true}
		err := DecodeEvent(line, &got)
		if (err == nil) != wantOK {
			t.Fatalf("DecodeEvent(%q) error %v, reference ok = %v", line, err, wantOK)
		}
		if wantOK && !sameEvent(got, want) {
			t.Fatalf("DecodeEvent(%q) = %+v, reference %+v", line, got, want)
		}
	})
}

var sinkEvent Event

// BenchmarkDecodeEvent compares DecodeEvent on a canonical event line
// with the json.Unmarshal it falls back to.
func BenchmarkDecodeEvent(b *testing.B) {
	line := []byte(`{"entity":"drift-3","t":12,"values":[0.4210533]}`)
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeEvent(line, &sinkEvent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEvent = Event{}
			if err := json.Unmarshal(line, &sinkEvent); err != nil {
				b.Fatal(err)
			}
		}
	})
}
