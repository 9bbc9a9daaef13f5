package main

import (
	"testing"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/ingest"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// fixed is a classifier whose every answer is the same decision.
type fixed struct{ label, consumed int }

func (f fixed) Name() string                    { return "fixed" }
func (f fixed) Fit(*ts.Dataset) error           { return nil }
func (f fixed) Classify(ts.Instance) (int, int) { return f.label, f.consumed }

var _ core.EarlyClassifier = fixed{}

func TestCheckServedFlagsMismatch(t *testing.T) {
	if err := checkServed(decision{1, 4}, decision{1, 4}); err != nil {
		t.Fatalf("identical decisions: %v", err)
	}
	for _, got := range []decision{{0, 4}, {1, 5}} {
		if err := checkServed(got, decision{1, 4}); err == nil {
			t.Errorf("served %+v against offline {1 4}: no error", got)
		}
	}
}

func TestCheckIngestedUsesPinnedVersion(t *testing.T) {
	window := ts.Instance{Values: [][]float64{{1, 2, 3}}}
	byVersion := map[int]core.EarlyClassifier{1: fixed{0, 3}, 2: fixed{1, 2}}
	d := ingest.Decision{Entity: "post-3", Label: 1, Consumed: 2, Length: 3, Version: 2}
	if err := checkIngested(d, byVersion, window); err != nil {
		t.Fatalf("decision matching its pinned version: %v", err)
	}
	// The same answer attributed to version 1 disagrees with version 1.
	d.Version = 1
	if err := checkIngested(d, byVersion, window); err == nil {
		t.Fatal("decision checked against the wrong version passed")
	}
	d.Version = 7
	if err := checkIngested(d, byVersion, window); err == nil {
		t.Fatal("decision by an unknown version passed")
	}
	d = ingest.Decision{Entity: "post-3", Label: 1, Consumed: 3, Length: 3, Version: 2}
	if err := checkIngested(d, byVersion, window); err == nil {
		t.Fatal("decision with the wrong consumed count passed")
	}
}
