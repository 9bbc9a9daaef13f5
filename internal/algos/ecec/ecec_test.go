package ecec

import (
	"math"
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
		N:       6,
		CVFolds: 3,
		Weasel:  weasel.Config{MaxWindows: 3},
		Seed:    1,
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

func TestThetaWithinUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if th := algo.Theta(); th < 0 || th > 1 {
		t.Fatalf("theta = %v", th)
	}
}

func TestConfidenceMonotoneInAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := divergeDataset(rng, 40, 24, 4)
	algo := New(fastCfg())
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	// Confidence of a longer agreeing sequence must not decrease.
	short := algo.confidence([]int{1})
	long := algo.confidence([]int{1, 1, 1})
	if long < short-1e-12 {
		t.Fatalf("confidence decreased with agreement: %v -> %v", short, long)
	}
	if short <= 0 || long > 1 {
		t.Fatalf("confidence out of range: %v, %v", short, long)
	}
}

func TestAlphaTradeoff(t *testing.T) {
	// High alpha favors accuracy (later, surer predictions); low alpha
	// favors earliness. Earliness must not increase with lower alpha.
	rng := rand.New(rand.NewSource(4))
	train := divergeDataset(rng, 60, 36, 12)
	test := divergeDataset(rng, 30, 36, 12)
	accurate := fastCfg()
	accurate.Alpha = 0.95
	eager := fastCfg()
	eager.Alpha = 0.05
	aAlgo := New(accurate)
	eAlgo := New(eager)
	if err := aAlgo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := eAlgo.Fit(train); err != nil {
		t.Fatal(err)
	}
	_, aEarl := evaluate(aAlgo, test)
	_, eEarl := evaluate(eAlgo, test)
	if eEarl > aEarl+0.15 {
		t.Fatalf("alpha=0.05 earliness %v much worse than alpha=0.95 %v", eEarl, aEarl)
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
	short := ts.Instance{Values: [][]float64{{0.1, 0.2, 5.1, 5.0, 4.9, 5.2}}, Label: 1}
	label, consumed := algo.Classify(short)
	if consumed > short.Length() {
		t.Fatalf("consumed %d > length %d", consumed, short.Length())
	}
	if label < 0 || label > 1 {
		t.Fatalf("label = %d", label)
	}
}

func TestDedupAndMidpoints(t *testing.T) {
	d := dedup([]float64{1, 1, 2, 3, 3})
	if len(d) != 3 {
		t.Fatalf("dedup = %v", d)
	}
	m := midpoints([]float64{1, 2, 4})
	if len(m) != 2 || m[0] != 1.5 || m[1] != 3 {
		t.Fatalf("midpoints = %v", m)
	}
	if out := midpoints([]float64{7}); len(out) != 1 || out[0] != 7 {
		t.Fatalf("single midpoint = %v", out)
	}
}

func TestConfidenceFormula(t *testing.T) {
	c := &Classifier{numClasses: 2}
	c.reliability = [][][]float64{
		{{0.9, 0.1}, {0.2, 0.8}}, // prefix 0
		{{0.7, 0.3}, {0.4, 0.6}}, // prefix 1
	}
	// Sequence [0, 0]: final = 0.
	// C = 1 - (1 - p0(0|0)) * (1 - p1(0|0)) = 1 - 0.1*0.3 = 0.97
	got := c.confidence([]int{0, 0})
	if math.Abs(got-0.97) > 1e-12 {
		t.Fatalf("confidence = %v, want 0.97", got)
	}
	// Disagreeing prefix lowers confidence: [1, 0], final = 0.
	// C = 1 - (1 - p0(0|1)) * (1 - p1(0|0)) = 1 - 0.8*0.3 = 0.76
	got = c.confidence([]int{1, 0})
	if math.Abs(got-0.76) > 1e-12 {
		t.Fatalf("confidence = %v, want 0.76", got)
	}
}
