package srule

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
	return Config{Checkpoints: 6, CVFolds: 3, Weasel: weasel.Config{MaxWindows: 3}, Seed: 1}
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

func TestGammaFromGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	grid := map[float64]bool{-1: true, -0.5: true, 0: true, 0.5: true, 1: true}
	for _, g := range algo.Gamma() {
		if !grid[g] {
			t.Fatalf("gamma %v not from the grid", g)
		}
	}
}

func TestAlphaTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := divergeDataset(rng, 60, 36, 12)
	test := divergeDataset(rng, 30, 36, 12)
	accurate := fastCfg()
	accurate.Alpha = 0.95
	eager := fastCfg()
	eager.Alpha = 0.05
	aAlgo, eAlgo := New(accurate), New(eager)
	if err := aAlgo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := eAlgo.Fit(train); err != nil {
		t.Fatal(err)
	}
	_, aEarl := evaluate(aAlgo, test)
	_, eEarl := evaluate(eAlgo, test)
	if eEarl > aEarl+0.15 {
		t.Fatalf("low alpha earliness %v much worse than high alpha %v", eEarl, aEarl)
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
	rng := rand.New(rand.NewSource(4))
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

func TestLastCheckpointAlwaysStops(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	// A gamma that never fires must still stop at the final checkpoint,
	// also for an instance shorter than it.
	algo.gamma = [3]float64{-1, -1, -1}
	for _, in := range []ts.Instance{train.Instances[0], train.Instances[0].Prefix(5)} {
		if _, consumed := algo.Classify(in); consumed != in.Length() {
			t.Fatalf("consumed %d of %d points, want all", consumed, in.Length())
		}
	}
}
