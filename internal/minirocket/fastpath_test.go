package minirocket

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// transformNaive is the pre-optimization reference implementation: one
// allocation per convolution and an O(n·b) positive-count loop per combo.
// The fast path must reproduce it bit for bit.
func transformNaive(m *Model, instance [][]float64) []float64 {
	var features []float64
	for _, cb := range m.combos {
		features = naivePPV(features, m.convolveInto(nil, instance, cb), cb.biases)
	}
	return features
}

// naivePPV appends the O(n·b) PPV pooling to features: per bias, the
// share of conv values v with v > bias, and 0 for an empty conv.
func naivePPV(features, conv, biases []float64) []float64 {
	for _, bias := range biases {
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
	return features
}

// FuzzAppendPPV holds appendPPV to naivePPV bit for bit. data holds the
// convolution outputs and bias the biases, one fuzzFloats value per byte,
// so ±0, NaN and ±Inf occur in both. The biases are sorted, as Fit's are,
// unless unsorted is set; a sorted list takes the counted buckets, and a
// list holding a NaN (sort puts it first) or out of order takes the naive
// branch. The scratch histogram starts stale, as a pooled one does.
func FuzzAppendPPV(f *testing.F) {
	f.Add([]byte{20, 28, 255, 32, 36}, []byte{27, 30, 34}, uint8(0), false)
	f.Fuzz(func(t *testing.T, data, bias []byte, levels uint8, unsorted bool) {
		if len(data) > 4096 || len(bias) > 256 {
			return
		}
		conv, biases := fuzzFloats(data, levels), fuzzFloats(bias, levels)
		if !unsorted {
			sort.Float64s(biases)
		}
		sc := &scratch{hist: make([]int, 48)}
		for i := range sc.hist {
			sc.hist[i] = 7
		}
		got := appendPPV([]float64{-1}, conv, biases, sc)[1:]
		want := naivePPV(nil, conv, biases)
		if len(got) != len(want) {
			t.Fatalf("%d features, want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("bias %d (%v) of %d over %d values: %v, naive %v",
					i, biases[i], len(biases), len(conv), got[i], want[i])
			}
		}
	})
}

// convolveInto is the seed-form convolution that Fit and Transform ran
// before the flat-buffer kernels: the dilated convolution of one instance
// with a combo's kernel, summed over its channel subset, appending into
// dst[:0] so one scratch buffer can be reused across all combos. With padding,
// every time point produces an output (missing taps read as zero);
// without, only fully covered positions do.
func (m *Model) convolveInto(dst []float64, instance [][]float64, cb combo) []float64 {
	length := len(instance[0])
	span := (kernelLength - 1) / 2 * cb.dilation // 4d
	var start, end int
	if cb.padding {
		start, end = 0, length
	} else {
		start, end = span, length-span
	}
	if end <= start {
		start, end = 0, length // series too short: fall back to padded
	}
	out := dst[:0]
	pos := m.kernels[cb.kernel]
	// Single-channel combos (every univariate dataset, and most
	// multivariate ones: subset sizes are log-uniform) take a branch-free
	// interior loop; tap order and the final expression are unchanged, so
	// outputs stay bit-identical to the generic path.
	if len(cb.channels) == 1 && cb.channels[0] < len(instance) {
		s := instance[cb.channels[0]]
		dil := cb.dilation
		for t := start; t < end; t++ {
			base := t - 4*dil
			if base >= 0 && base+8*dil < length {
				sumAll := s[base] + s[base+dil] + s[base+2*dil] + s[base+3*dil] +
					s[base+4*dil] + s[base+5*dil] + s[base+6*dil] + s[base+7*dil] +
					s[base+8*dil]
				sumPos := s[base+pos[0]*dil] + s[base+pos[1]*dil] + s[base+pos[2]*dil]
				out = append(out, 3*sumPos-sumAll)
				continue
			}
			var sumAll, sumPos float64
			for j := 0; j < kernelLength; j++ {
				off := base + j*dil
				if off < 0 || off >= length {
					continue
				}
				sumAll += s[off]
				if j == pos[0] || j == pos[1] || j == pos[2] {
					sumPos += s[off]
				}
			}
			out = append(out, 3*sumPos-sumAll)
		}
		return out
	}
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
		// Weights are -1 everywhere plus 3 at the selected taps.
		out = append(out, 3*sumPos-sumAll)
	}
	return out
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
	// Rows with NaN points: one isolated, one a run as long as a dilated
	// kernel's span, so NaN outputs fall between finite ones.
	withNaN := func(inst [][]float64, at []int) [][]float64 {
		row := append([]float64(nil), inst[0]...)
		for _, i := range at {
			row[i] = math.NaN()
		}
		return [][]float64{row}
	}
	rows := append(append([][][]float64(nil), train...),
		withNaN(train[0], []int{40}), withNaN(train[1], []int{0, 20, 21, 22, 23, 24, 25, 26, 27, 95}))
	for _, numFeatures := range []int{84, 840, 2520} {
		m := New(Config{NumFeatures: numFeatures, Seed: 31})
		if err := m.Fit(train, trainY, 2); err != nil {
			t.Fatal(err)
		}
		check := func(what string) {
			t.Helper()
			for i, inst := range rows {
				fast := m.Transform(inst)
				naive := transformNaive(m, inst)
				if len(fast) != len(naive) {
					t.Fatalf("NumFeatures=%d %s row %d: %d features vs %d",
						numFeatures, what, i, len(fast), len(naive))
				}
				for j := range fast {
					if fast[j] != naive[j] {
						t.Fatalf("NumFeatures=%d %s row %d feature %d: fast %v != naive %v",
							numFeatures, what, i, j, fast[j], naive[j])
					}
				}
			}
			// Short prefixes exercise the too-short fallback inside convolve.
			short := [][]float64{train[0][0][:3]}
			fast, naive := m.Transform(short), transformNaive(m, short)
			for j := range fast {
				if fast[j] != naive[j] {
					t.Fatalf("NumFeatures=%d %s short prefix feature %d: %v != %v", numFeatures, what, j, fast[j], naive[j])
				}
			}
		}
		check("fitted biases")
		// A NaN bias, as Fit draws from a pool holding NaN, first in
		// one combo's list (where sorting puts it) and last in another's.
		m.combos[0].biases[0] = math.NaN()
		last := m.combos[len(m.combos)-1].biases
		last[len(last)-1] = math.NaN()
		check("NaN biases")
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
