package mlstm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func sineInstances(rng *rand.Rand, nPerClass, length int) ([][][]float64, []int) {
	var instances [][][]float64
	var labels []int
	for i := 0; i < nPerClass; i++ {
		for c, freq := range []float64{1, 4} {
			s := make([]float64, length)
			phase := rng.Float64() * 2 * math.Pi
			for t := range s {
				s[t] = math.Sin(2*math.Pi*freq*float64(t)/float64(length)+phase) + rng.NormFloat64()*0.1
			}
			instances = append(instances, [][]float64{s})
			labels = append(labels, c)
		}
	}
	return instances, labels
}

func modelAccuracy(m *Model, instances [][][]float64, labels []int) float64 {
	correct := 0
	for i, inst := range instances {
		if m.Predict(inst) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

func TestLearnsFrequencyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, trainY := sineInstances(rng, 20, 32)
	test, testY := sineInstances(rng, 8, 32)
	m := New(Config{Filters: [3]int{8, 16, 8}, Cells: 4, Epochs: 40, LearningRate: 0.01, Seed: 1})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	if acc := modelAccuracy(m, test, testY); acc < 0.85 {
		t.Fatalf("test accuracy = %v", acc)
	}
}

func TestMultivariateSignalInOneChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var instances [][][]float64
	var labels []int
	for i := 0; i < 60; i++ {
		c := i % 2
		noise := make([]float64, 24)
		signal := make([]float64, 24)
		for tt := range noise {
			noise[tt] = rng.NormFloat64()
			signal[tt] = float64(c)*2 + rng.NormFloat64()*0.3
		}
		instances = append(instances, [][]float64{noise, signal})
		labels = append(labels, c)
	}
	m := New(Config{Filters: [3]int{8, 16, 8}, Cells: 4, Epochs: 40, LearningRate: 0.01, Seed: 2})
	if err := m.Fit(instances, labels, 2); err != nil {
		t.Fatal(err)
	}
	if acc := modelAccuracy(m, instances, labels); acc < 0.9 {
		t.Fatalf("multivariate accuracy = %v", acc)
	}
}

func TestProbabilitiesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train, trainY := sineInstances(rng, 6, 16)
	m := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, Seed: 3})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	for _, inst := range train {
		p := m.PredictProba(inst)
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

func TestPredictOnPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train, trainY := sineInstances(rng, 6, 32)
	m := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, Seed: 4})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	// A 5-point prefix must not panic and must yield a distribution.
	p := m.PredictProba([][]float64{train[0][0][:5]})
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("prefix proba sum = %v", sum)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, trainY := sineInstances(rng, 5, 16)
	m1 := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, Seed: 9})
	m2 := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, Seed: 9})
	if err := m1.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	p1 := m1.PredictProba(train[0])
	p2 := m2.PredictProba(train[0])
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestFitErrors(t *testing.T) {
	m := New(Config{})
	if err := m.Fit(nil, nil, 2); err == nil {
		t.Fatal("empty accepted")
	}
	if err := m.Fit([][][]float64{{{1}}}, []int{0, 1}, 2); err == nil {
		t.Fatal("mismatch accepted")
	}
	if err := m.Fit([][][]float64{{{1}}}, []int{0}, 1); err == nil {
		t.Fatal("single class accepted")
	}
	if err := m.Fit([][][]float64{{}}, []int{0}, 2); err == nil {
		t.Fatal("no variables accepted")
	}
}

func TestAttentionVariantLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train, trainY := sineInstances(rng, 20, 32)
	test, testY := sineInstances(rng, 8, 32)
	m := New(Config{Filters: [3]int{8, 16, 8}, Cells: 4, Epochs: 40, LearningRate: 0.01, Attention: true, Seed: 6})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	if acc := modelAccuracy(m, test, testY); acc < 0.85 {
		t.Fatalf("attention variant accuracy = %v", acc)
	}
}

func TestAttentionVariantDiffersFromPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train, trainY := sineInstances(rng, 8, 16)
	plain := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, Seed: 8})
	attn := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 3, Attention: true, Seed: 8})
	if err := plain.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	if err := attn.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	p1 := plain.PredictProba(train[0])
	p2 := attn.PredictProba(train[0])
	if p1[0] == p2[0] {
		t.Fatal("attention variant produced identical outputs to the plain LSTM")
	}
}

// TestPredictProbaConcurrent runs PredictProba on one trained model from
// 8 goroutines and requires the bits of a serial run: inference must not
// share the buffers training reuses, nor any other mutable layer state.
func TestPredictProbaConcurrent(t *testing.T) {
	for _, attention := range []bool{false, true} {
		rng := rand.New(rand.NewSource(12))
		train, trainY := sineInstances(rng, 6, 24)
		m := New(Config{Filters: [3]int{4, 8, 4}, Cells: 4, Epochs: 2, Attention: attention, Seed: 12})
		if err := m.Fit(train, trainY, 2); err != nil {
			t.Fatal(err)
		}
		// Full series and prefixes, so the goroutines also run at
		// different lengths side by side.
		var inputs [][][]float64
		for i, inst := range train {
			inputs = append(inputs, [][]float64{inst[0][:8+i%17]}, inst)
		}
		want := make([][]float64, len(inputs))
		for i, in := range inputs {
			want[i] = m.PredictProba(in)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					for j := range inputs {
						i := (j + g*5) % len(inputs)
						got := m.PredictProba(inputs[i])
						for c := range got {
							if math.Float64bits(got[c]) != math.Float64bits(want[i][c]) {
								t.Errorf("attention=%v goroutine %d input %d: got %v, serial %v", attention, g, i, got, want[i])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
