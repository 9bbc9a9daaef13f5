package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeFleetCreate diffs the router's create-body fast path
// against the encoding/json decode it falls back to: every body it
// accepts decodes to the same request, and every body it declines
// leaves the request untouched for the fallback.
func FuzzDecodeFleetCreate(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var got fleetCreateRequest
		if !got.decodeWire(body) {
			if got != (fleetCreateRequest{}) {
				t.Fatalf("fast path declined %q but changed the request to %+v", body, got)
			}
			return
		}
		var want fleetCreateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", body, err)
		}
		if got != want {
			t.Fatalf("fast path decoded %q to %+v, encoding/json to %+v", body, got, want)
		}
	})
}

// decidedReference is decidedResponse as it was before the fast path.
func decidedReference(body []byte) bool {
	var st struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return false
	}
	return st.Status == "decided"
}

// FuzzDecidedResponse diffs the decided check against json.Unmarshal:
// the fast path's answer, whenever it gives one, and the whole check.
func FuzzDecidedResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		want := decidedReference(body)
		if got, ok := scanDecided(body); ok && got != want {
			t.Fatalf("scanDecided(%q) = %v, encoding/json says %v", body, got, want)
		}
		if got := decidedResponse(body); got != want {
			t.Fatalf("decidedResponse(%q) = %v, encoding/json says %v", body, got, want)
		}
	})
}
