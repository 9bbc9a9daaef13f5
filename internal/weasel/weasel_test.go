package weasel

import (
	"math"
	"math/rand"
	"testing"
)

// freqSeries builds univariate series of two classes that differ in
// dominant frequency.
func freqSeries(rng *rand.Rand, nPerClass, length int) ([][]float64, []int) {
	var series [][]float64
	var labels []int
	for i := 0; i < nPerClass; i++ {
		for c, freq := range []float64{2, 6} {
			s := make([]float64, length)
			phase := rng.Float64() * 2 * math.Pi
			for t := range s {
				s[t] = math.Sin(2*math.Pi*freq*float64(t)/float64(length)+phase) + rng.NormFloat64()*0.1
			}
			series = append(series, s)
			labels = append(labels, c)
		}
	}
	return series, labels
}

func seriesAccuracy(m *Model, series [][]float64, labels []int) float64 {
	correct := 0
	for i, s := range series {
		p := m.PredictProbaSeries(s)
		best := 0
		for c, v := range p {
			if v > p[best] {
				best = c
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

func TestUnivariateFrequencyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, trainY := freqSeries(rng, 25, 64)
	test, testY := freqSeries(rng, 10, 64)
	m := New(Config{})
	if err := m.FitSeries(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	if acc := seriesAccuracy(m, test, testY); acc < 0.9 {
		t.Fatalf("test accuracy = %v", acc)
	}
	if m.NumFeatures() == 0 {
		t.Fatal("no features selected")
	}
}

func TestOffsetClassesWithoutNormalization(t *testing.T) {
	// Classes differ only in level; without whole-series z-normalization
	// WEASEL must separate them (the paper's reason for dropping it).
	rng := rand.New(rand.NewSource(2))
	mkSet := func(n int) ([][]float64, []int) {
		var series [][]float64
		var labels []int
		for i := 0; i < n; i++ {
			c := i % 2
			s := make([]float64, 32)
			for t := range s {
				s[t] = float64(c)*10 + rng.NormFloat64()
			}
			series = append(series, s)
			labels = append(labels, c)
		}
		return series, labels
	}
	train, trainY := mkSet(40)
	test, testY := mkSet(20)
	m := New(Config{})
	if err := m.FitSeries(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	if acc := seriesAccuracy(m, test, testY); acc < 0.9 {
		t.Fatalf("offset test accuracy = %v", acc)
	}
}

func TestMultivariateMUSE(t *testing.T) {
	// Class signal lives in variable 1 only; variable 0 is noise.
	rng := rand.New(rand.NewSource(3))
	var instances [][][]float64
	var labels []int
	for i := 0; i < 50; i++ {
		c := i % 2
		noise := make([]float64, 40)
		signal := make([]float64, 40)
		for t := range noise {
			noise[t] = rng.NormFloat64()
			signal[t] = math.Sin(2*math.Pi*float64(1+c*3)*float64(t)/40) + rng.NormFloat64()*0.1
		}
		instances = append(instances, [][]float64{noise, signal})
		labels = append(labels, c)
	}
	m := NewMUSE(Config{})
	if err := m.Fit(instances, labels, 2); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, inst := range instances {
		if m.Predict(inst) == labels[i] {
			correct++
		}
	}
	if correct < 45 {
		t.Fatalf("MUSE accuracy = %d/50", correct)
	}
}

func TestPredictOnShortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train, trainY := freqSeries(rng, 15, 64)
	m := New(Config{})
	if err := m.FitSeries(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	// Prefix shorter than every window size: must not panic, must return a
	// valid distribution.
	p := m.PredictProbaSeries(train[0][:3])
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("prefix proba sum = %v", sum)
	}
}

func TestProbabilitiesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, trainY := freqSeries(rng, 10, 32)
	m := New(Config{})
	if err := m.FitSeries(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range train {
		p := m.PredictProbaSeries(s)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("proba sum = %v", sum)
		}
	}
}

func TestBigramsHelpOrder(t *testing.T) {
	// Two classes share the same unigram content but differ in order:
	// low-then-high vs high-then-low frequency halves.
	rng := rand.New(rand.NewSource(6))
	mk := func(firstLow bool) []float64 {
		s := make([]float64, 64)
		for t := range s {
			freq := 2.0
			if (t < 32) != firstLow {
				freq = 8
			}
			s[t] = math.Sin(2*math.Pi*freq*float64(t)/32) + rng.NormFloat64()*0.05
		}
		return s
	}
	var series [][]float64
	var labels []int
	for i := 0; i < 30; i++ {
		series = append(series, mk(true), mk(false))
		labels = append(labels, 0, 1)
	}
	m := New(Config{})
	if err := m.FitSeries(series, labels, 2); err != nil {
		t.Fatal(err)
	}
	if acc := seriesAccuracy(m, series, labels); acc < 0.9 {
		t.Fatalf("order-sensitive accuracy = %v", acc)
	}
}

func TestFitErrors(t *testing.T) {
	m := New(Config{})
	if err := m.FitSeries(nil, nil, 2); err == nil {
		t.Fatal("empty accepted")
	}
	if err := m.FitSeries([][]float64{{1, 2}}, []int{0, 1}, 2); err == nil {
		t.Fatal("mismatch accepted")
	}
	if err := m.FitSeries([][]float64{{1, 2}}, []int{0}, 1); err == nil {
		t.Fatal("single class accepted")
	}
	if err := m.Fit([][][]float64{{}}, []int{0}, 2); err == nil {
		t.Fatal("no variables accepted")
	}
}

func TestWindowSizes(t *testing.T) {
	sizes := windowSizes(4, 64, 6)
	if len(sizes) != 6 || sizes[0] != 4 || sizes[len(sizes)-1] != 64 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not strictly ascending: %v", sizes)
		}
	}
	// Tiny series.
	if s := windowSizes(4, 3, 6); len(s) != 1 || s[0] != 3 {
		t.Fatalf("tiny sizes = %v", s)
	}
	if s := windowSizes(4, 2, 6); len(s) != 1 || s[0] != 2 {
		t.Fatalf("min sizes = %v", s)
	}
	// Span smaller than requested count: no duplicates.
	s := windowSizes(4, 6, 8)
	if len(s) != 3 {
		t.Fatalf("small span sizes = %v", s)
	}
}

func TestVeryShortTraining(t *testing.T) {
	// Series shorter than the default min window: the model must train,
	// fit the training set, and return valid (possibly low-confidence)
	// distributions for unseen inputs. With four 3-point samples a word
	// mismatch on test data is expected behaviour, not a bug — the ETSC
	// pipelines interpret the uniform output as "wait for more data".
	series := [][]float64{{1, 2, 3}, {10, 11, 12}, {1.2, 2.2, 3.1}, {9, 10, 12}}
	labels := []int{0, 1, 0, 1}
	m := New(Config{})
	if err := m.FitSeries(series, labels, 2); err != nil {
		t.Fatal(err)
	}
	for i, s := range series {
		if m.Predict([][]float64{s}) != labels[i] {
			t.Fatalf("training instance %d misclassified", i)
		}
	}
	p := m.PredictProbaSeries([]float64{10, 11, 11.5})
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("unseen-input proba sum = %v", sum)
	}
}
