package teaser

import (
	"math/rand"
	"testing"

	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

func divergeDataset(rng *rand.Rand, n, length, divergeAt int) *ts.Dataset {
	d := &ts.Dataset{Name: "diverge"}
	for i := 0; i < n; i++ {
		c := i % 2
		row := make([]float64, length)
		for t := range row {
			if t < divergeAt {
				row[t] = rng.NormFloat64() * 0.3
			} else {
				row[t] = float64(c)*5 + rng.NormFloat64()*0.3
			}
		}
		d.Instances = append(d.Instances, ts.Instance{Values: [][]float64{row}, Label: c})
	}
	return d
}

func fastCfg() Config {
	return Config{
		S:      6,
		Weasel: weasel.Config{MaxWindows: 3},
		Seed:   1,
	}
}

func evaluate(algo *Classifier, test *ts.Dataset) (acc, earl float64) {
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
	train := divergeDataset(rng, 60, 36, 6)
	test := divergeDataset(rng, 30, 36, 6)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc, earl := evaluate(algo, test)
	if acc < 0.85 {
		t.Fatalf("accuracy = %v", acc)
	}
	if earl >= 0.99 {
		t.Fatalf("earliness = %v: never early", earl)
	}
}

func TestSelectedVInGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if algo.V() < 1 || algo.V() > 5 {
		t.Fatalf("v = %d outside the grid", algo.V())
	}
}

func TestConsistencyDelaysCommitment(t *testing.T) {
	// With v forced high, predictions need more consecutive agreements and
	// earliness must not be better (lower) than with v = 1.
	rng := rand.New(rand.NewSource(3))
	train := divergeDataset(rng, 50, 36, 6)
	test := divergeDataset(rng, 25, 36, 6)
	eager := fastCfg()
	eager.VGrid = []int{1}
	patient := fastCfg()
	patient.VGrid = []int{4}
	eAlgo := New(eager)
	pAlgo := New(patient)
	if err := eAlgo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := pAlgo.Fit(train); err != nil {
		t.Fatal(err)
	}
	_, eEarl := evaluate(eAlgo, test)
	_, pEarl := evaluate(pAlgo, test)
	if pEarl < eEarl-1e-9 {
		t.Fatalf("v=4 earliness %v better than v=1 %v", pEarl, eEarl)
	}
}

func TestFinalPrefixBypassesFilter(t *testing.T) {
	// Even for garbage input far from any training distribution, the final
	// prefix must emit a label (consuming the full series).
	rng := rand.New(rand.NewSource(4))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	weird := make([]float64, 24)
	for i := range weird {
		weird[i] = 1e6 * rng.NormFloat64()
	}
	label, consumed := algo.Classify(ts.Instance{Values: [][]float64{weird}})
	if label < 0 || label > 1 {
		t.Fatalf("label = %d", label)
	}
	if consumed > 24 {
		t.Fatalf("consumed = %d", consumed)
	}
}

func TestOCSVMFeatures(t *testing.T) {
	f := ocsvmFeatures([]float64{0.7, 0.2, 0.1})
	if len(f) != 4 {
		t.Fatalf("features = %v", f)
	}
	if diff := f[3] - 0.5; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("margin = %v, want 0.5", f[3])
	}
}

func TestRejectsMultivariate(t *testing.T) {
	mv := &ts.Dataset{Name: "mv", Instances: []ts.Instance{
		{Values: [][]float64{{1, 2}, {3, 4}}, Label: 0},
		{Values: [][]float64{{1, 2}, {3, 4}}, Label: 1},
	}}
	if err := New(Config{}).Fit(mv); err == nil {
		t.Fatal("multivariate accepted")
	}
}

func TestShortTestInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	short := ts.Instance{Values: [][]float64{{0.1, 0.2, 5.1, 5.0}}, Label: 1}
	_, consumed := algo.Classify(short)
	if consumed > short.Length() {
		t.Fatalf("consumed %d > length %d", consumed, short.Length())
	}
}
