package minirocket

import (
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/testenv"
)

// TestTransformIntoZeroAlloc gates the per-instance transform at zero
// allocations once the scratch pool and the destination row are warm —
// the condition that keeps batch transforms off the allocator entirely.
func TestTransformIntoZeroAlloc(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(7))
	train, trainY := sineInstances(rng, 20, 64)
	m := New(Config{NumFeatures: 840, Seed: 7})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatalf("fit: %v", err)
	}
	in := train[0]
	dst := m.Transform(in)
	if allocs := testing.AllocsPerRun(100, func() { dst = m.TransformInto(dst, in) }); allocs != 0 {
		t.Errorf("TransformInto with a warm row allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTransformBatchIntoReusesRows pins the batch contract: rows and
// their backing arrays survive a second TransformBatchInto untouched, so
// a fold loop reuses one arena across calls.
func TestTransformBatchIntoReusesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train, trainY := sineInstances(rng, 20, 64)
	m := New(Config{NumFeatures: 840, Seed: 9})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatalf("fit: %v", err)
	}
	instances := train[:8]
	out := m.TransformBatch(instances)
	heads := make([]*float64, len(out))
	for i, row := range out {
		if len(row) == 0 {
			t.Fatalf("row %d is empty", i)
		}
		heads[i] = &row[0]
	}
	m.TransformBatchInto(out, instances)
	for i, row := range out {
		if &row[0] != heads[i] {
			t.Errorf("row %d was reallocated on reuse", i)
		}
	}
}
