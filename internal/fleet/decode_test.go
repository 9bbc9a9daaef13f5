package fleet

import (
	"encoding/json"
	"testing"
)

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
