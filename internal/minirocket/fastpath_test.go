package minirocket

import (
	"math/rand"
	"testing"
)

// transformNaive is the pre-optimization reference implementation: one
// allocation per convolution and an O(n·b) positive-count loop per combo.
// The fast path must reproduce it bit for bit.
func transformNaive(m *Model, instance [][]float64) []float64 {
	var features []float64
	for _, cb := range m.combos {
		conv := m.convolveInto(nil, instance, cb)
		for _, bias := range cb.biases {
			positive := 0
			for _, v := range conv {
				if v > bias {
					positive++
				}
			}
			ppv := 0.0
			if len(conv) > 0 {
				ppv = float64(positive) / float64(len(conv))
			}
			features = append(features, ppv)
		}
	}
	return features
}

// convolveSeed is the seed repo's convolution, kept verbatim so the full
// pre-PR Transform cost stays measurable (BenchmarkTransformSeedBaseline).
func convolveSeed(m *Model, instance [][]float64, cb combo) []float64 {
	length := len(instance[0])
	span := (kernelLength - 1) / 2 * cb.dilation
	var start, end int
	if cb.padding {
		start, end = 0, length
	} else {
		start, end = span, length-span
	}
	if end <= start {
		start, end = 0, length
	}
	out := make([]float64, 0, end-start)
	pos := m.kernels[cb.kernel]
	for t := start; t < end; t++ {
		var sumAll, sumPos float64
		for j := 0; j < kernelLength; j++ {
			off := t + (j-4)*cb.dilation
			if off < 0 || off >= length {
				continue
			}
			var v float64
			for _, ch := range cb.channels {
				if ch < len(instance) {
					v += instance[ch][off]
				}
			}
			sumAll += v
			if j == pos[0] || j == pos[1] || j == pos[2] {
				sumPos += v
			}
		}
		out = append(out, 3*sumPos-sumAll)
	}
	return out
}

// transformSeed is the seed repo's Transform, kept verbatim as the
// untouched baseline.
func transformSeed(m *Model, instance [][]float64) []float64 {
	var features []float64
	for _, cb := range m.combos {
		conv := convolveSeed(m, instance, cb)
		for _, bias := range cb.biases {
			positive := 0
			for _, v := range conv {
				if v > bias {
					positive++
				}
			}
			ppv := 0.0
			if len(conv) > 0 {
				ppv = float64(positive) / float64(len(conv))
			}
			features = append(features, ppv)
		}
	}
	return features
}

func TestTransformFastPathMatchesSeedImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	train, trainY := sineInstances(rng, 10, 80)
	m := New(Config{NumFeatures: 840, Seed: 37})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	for i, inst := range train {
		fast, seed := m.Transform(inst), transformSeed(m, inst)
		if len(fast) != len(seed) {
			t.Fatalf("instance %d: %d features vs %d", i, len(fast), len(seed))
		}
		for j := range fast {
			if fast[j] != seed[j] {
				t.Fatalf("instance %d feature %d: fast %v != seed %v", i, j, fast[j], seed[j])
			}
		}
	}
}

func TestTransformFastPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	train, trainY := sineInstances(rng, 12, 96)
	for _, numFeatures := range []int{84, 840, 2520} {
		m := New(Config{NumFeatures: numFeatures, Seed: 31})
		if err := m.Fit(train, trainY, 2); err != nil {
			t.Fatal(err)
		}
		for i, inst := range train {
			fast := m.Transform(inst)
			naive := transformNaive(m, inst)
			if len(fast) != len(naive) {
				t.Fatalf("NumFeatures=%d instance %d: %d features vs %d",
					numFeatures, i, len(fast), len(naive))
			}
			for j := range fast {
				if fast[j] != naive[j] {
					t.Fatalf("NumFeatures=%d instance %d feature %d: fast %v != naive %v",
						numFeatures, i, j, fast[j], naive[j])
				}
			}
		}
		// Short prefixes exercise the too-short fallback inside convolve.
		short := [][]float64{train[0][0][:3]}
		fast, naive := m.Transform(short), transformNaive(m, short)
		for j := range fast {
			if fast[j] != naive[j] {
				t.Fatalf("short prefix feature %d: %v != %v", j, fast[j], naive[j])
			}
		}
	}
}

func TestTransformUnsortedBiasFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	train, trainY := sineInstances(rng, 8, 48)
	m := New(Config{NumFeatures: 840, Seed: 33})
	if err := m.Fit(train, trainY, 2); err != nil {
		t.Fatal(err)
	}
	// Deliberately break the sortedness invariant of one combo: the
	// defensive naive branch must keep results exact.
	cb := &m.combos[0]
	if len(cb.biases) < 2 {
		t.Skip("combo has a single bias")
	}
	cb.biases[0], cb.biases[len(cb.biases)-1] = cb.biases[len(cb.biases)-1], cb.biases[0]
	fast, naive := m.Transform(train[0]), transformNaive(m, train[0])
	for j := range fast {
		if fast[j] != naive[j] {
			t.Fatalf("unsorted-bias feature %d: %v != %v", j, fast[j], naive[j])
		}
	}
}

func TestFitParallelTransformDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	train, trainY := sineInstances(rng, 15, 64)
	fit := func() *Model {
		m := New(Config{NumFeatures: 840, Seed: 35})
		if err := m.Fit(train, trainY, 2); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := fit(), fit()
	pa, pb := a.PredictProba(train[0]), b.PredictProba(train[0])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("refit not deterministic: %v vs %v", pa, pb)
		}
	}
}

func benchModel(b *testing.B, length int) (*Model, [][][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(40))
	train, trainY := sineInstances(rng, 20, length)
	m := New(Config{Seed: 41}) // default 2520 features
	if err := m.Fit(train, trainY, 2); err != nil {
		b.Fatal(err)
	}
	return m, train
}

func BenchmarkTransform(b *testing.B) {
	m, train := benchModel(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transform(train[i%len(train)])
	}
}

// BenchmarkTransformNaive pins the pre-optimization baseline so the
// ns/op and allocs/op reduction stays measurable release over release.
func BenchmarkTransformNaive(b *testing.B) {
	m, train := benchModel(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transformNaive(m, train[i%len(train)])
	}
}

// BenchmarkTransformSeedBaseline measures the verbatim pre-PR Transform
// (original convolution and O(n·b) PPV loop): the full speedup this PR
// delivers is SeedBaseline / Transform.
func BenchmarkTransformSeedBaseline(b *testing.B) {
	m, train := benchModel(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transformSeed(m, train[i%len(train)])
	}
}

func BenchmarkFit(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	train, trainY := sineInstances(rng, 20, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(Config{Seed: 43})
		if err := m.Fit(train, trainY, 2); err != nil {
			b.Fatal(err)
		}
	}
}
