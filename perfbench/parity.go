package main

import (
	"fmt"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/ingest"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// decision is one early-classification answer.
type decision struct{ label, consumed int }

// checkServed compares a decision the serving stack returned with the
// offline Classify of the same instance: the serving layer promises the
// two are identical, for one-shot requests and streamed sessions alike.
func checkServed(got, offline decision) error {
	if got != offline {
		return fmt.Errorf("served (label %d, consumed %d), offline Classify (label %d, consumed %d)",
			got.label, got.consumed, offline.label, offline.consumed)
	}
	return nil
}

// checkIngested compares one ingest decision with the offline Classify
// of its window by the model version the window pinned. byVersion maps
// every version the registry ever served to its classifier.
func checkIngested(d ingest.Decision, byVersion map[int]core.EarlyClassifier, window ts.Instance) error {
	algo, ok := byVersion[d.Version]
	if !ok {
		return fmt.Errorf("%s window %d decided by unknown version %d", d.Entity, d.Window, d.Version)
	}
	label, consumed := algo.Classify(window)
	if err := checkServed(decision{d.Label, d.Consumed}, decision{label, consumed}); err != nil {
		return fmt.Errorf("%s window %d v%d: %w", d.Entity, d.Window, d.Version, err)
	}
	return nil
}
