package economyk

import (
	"math/rand"
	"testing"

	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// divergeDataset builds univariate series whose classes share a prefix and
// diverge after divergeAt: a canonical ETSC task.
func divergeDataset(rng *rand.Rand, n, length, divergeAt int) *ts.Dataset {
	d := &ts.Dataset{Name: "diverge"}
	for i := 0; i < n; i++ {
		c := i % 2
		row := make([]float64, length)
		for t := range row {
			if t < divergeAt {
				row[t] = rng.NormFloat64() * 0.3
			} else {
				row[t] = float64(c)*4 + rng.NormFloat64()*0.3
			}
		}
		d.Instances = append(d.Instances, ts.Instance{Values: [][]float64{row}, Label: c})
	}
	return d
}

func evaluate(t *testing.T, algo *Classifier, test *ts.Dataset) (acc, earl float64) {
	t.Helper()
	correct := 0
	var consumed float64
	for _, in := range test.Instances {
		label, used := algo.Classify(in)
		if label == in.Label {
			correct++
		}
		consumed += float64(used) / float64(in.Length())
	}
	return float64(correct) / float64(test.Len()), consumed / float64(test.Len())
}

func TestLearnsAndStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := divergeDataset(rng, 60, 40, 10)
	test := divergeDataset(rng, 30, 40, 10)
	algo := New(Config{Checkpoints: 10, Seed: 1})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc, earl := evaluate(t, algo, test)
	if acc < 0.85 {
		t.Fatalf("accuracy = %v", acc)
	}
	if earl >= 1 {
		t.Fatalf("earliness = %v, never stopped early", earl)
	}
}

func TestWaitsThroughUninformativePrefix(t *testing.T) {
	// Classes only diverge at 60% of the series; ECONOMY-K should not
	// commit during the shared prefix (where accuracy would be chance).
	rng := rand.New(rand.NewSource(2))
	train := divergeDataset(rng, 80, 40, 24)
	test := divergeDataset(rng, 40, 40, 24)
	algo := New(Config{Checkpoints: 10, Seed: 2})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc, earl := evaluate(t, algo, test)
	if acc < 0.8 {
		t.Fatalf("accuracy = %v despite waiting", acc)
	}
	// Must consume at least up to the divergence point on average.
	if earl < 0.5 {
		t.Fatalf("earliness = %v: committed before the classes became separable", earl)
	}
}

func TestRejectsMultivariate(t *testing.T) {
	d := &ts.Dataset{Name: "mv", Instances: []ts.Instance{
		{Values: [][]float64{{1, 2}, {3, 4}}, Label: 0},
		{Values: [][]float64{{1, 2}, {3, 4}}, Label: 1},
	}}
	algo := New(Config{})
	if err := algo.Fit(d); err == nil {
		t.Fatal("multivariate input accepted")
	}
}

func TestSingleClassRejected(t *testing.T) {
	d := &ts.Dataset{Name: "one", Instances: []ts.Instance{
		{Values: [][]float64{{1, 2}}, Label: 0},
		{Values: [][]float64{{2, 3}}, Label: 0},
	}}
	if err := New(Config{}).Fit(d); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestShortTestInstanceClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := divergeDataset(rng, 40, 20, 5)
	algo := New(Config{Checkpoints: 5, Seed: 3})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	short := ts.Instance{Values: [][]float64{{0.1, 0.2, 4.1, 4.0, 3.9}}, Label: 1}
	_, consumed := algo.Classify(short)
	if consumed > short.Length() {
		t.Fatalf("consumed %d > length %d", consumed, short.Length())
	}
}

func TestPadTo(t *testing.T) {
	out := padTo([]float64{1, 2}, 4)
	if len(out) != 4 || out[3] != 2 {
		t.Fatalf("padTo = %v", out)
	}
	same := []float64{1, 2, 3}
	if &padTo(same, 3)[0] != &same[0] {
		t.Fatal("padTo should not copy when long enough")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := divergeDataset(rng, 40, 20, 5)
	test := divergeDataset(rng, 10, 20, 5)
	a1 := New(Config{Checkpoints: 5, Seed: 7})
	a2 := New(Config{Checkpoints: 5, Seed: 7})
	if err := a1.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := a2.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, in := range test.Instances {
		l1, c1 := a1.Classify(in)
		l2, c2 := a2.Classify(in)
		if l1 != l2 || c1 != c2 {
			t.Fatal("same seed, different decisions")
		}
	}
}
