package synth

import (
	"reflect"
	"testing"

	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// checkShape verifies height instances of numVars × length values whose
// labels cycle 0, 1, …, numClasses-1.
func checkShape(t *testing.T, d *ts.Dataset, name string, numVars, numClasses, height, length int) {
	t.Helper()
	if d.Name != name {
		t.Fatalf("name = %q, want %q", d.Name, name)
	}
	if d.Len() != height {
		t.Fatalf("%d instances, want %d", d.Len(), height)
	}
	for i, in := range d.Instances {
		if in.Label != i%numClasses {
			t.Fatalf("instance %d label = %d, want %d", i, in.Label, i%numClasses)
		}
		if len(in.Values) != numVars {
			t.Fatalf("instance %d has %d variables, want %d", i, len(in.Values), numVars)
		}
		for v, row := range in.Values {
			if len(row) != length {
				t.Fatalf("instance %d variable %d has %d points, want %d", i, v, len(row), length)
			}
		}
	}
}

func TestDatasetDeterministicShape(t *testing.T) {
	a := Dataset("s", 2, 3, 10, 16, 5)
	checkShape(t, a, "s", 2, 3, 10, 16)
	if b := Dataset("s", 2, 3, 10, 16, 5); !reflect.DeepEqual(a, b) {
		t.Fatal("same arguments produced different data")
	}
	if c := Dataset("s", 2, 3, 10, 16, 6); reflect.DeepEqual(a.Instances, c.Instances) {
		t.Fatal("a different seed produced identical data")
	}
}

func TestRegimeDatasetDeterministicShape(t *testing.T) {
	for _, regime := range []int{0, 1, 2} {
		a := RegimeDataset("r", 1, 2, 9, 20, 7, regime)
		checkShape(t, a, "r", 1, 2, 9, 20)
		if b := RegimeDataset("r", 1, 2, 9, 20, 7, regime); !reflect.DeepEqual(a, b) {
			t.Fatalf("regime %d: same arguments produced different data", regime)
		}
	}
	r0 := RegimeDataset("r", 1, 2, 9, 20, 7, 0)
	r1 := RegimeDataset("r", 1, 2, 9, 20, 7, 1)
	if reflect.DeepEqual(r0.Instances, r1.Instances) {
		t.Fatal("regimes 0 and 1 produced identical data")
	}
}
