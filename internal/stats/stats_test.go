package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !approx(v, 4, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if s := StdDev(xs); !approx(s, 2, 1e-12) {
		t.Fatalf("std = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs mishandled")
	}
}

func TestMeanStdMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = math.Mod(v, 1000)
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		m, s := MeanStd(xs)
		return approx(m, Mean(xs), 1e-6) && approx(s, StdDev(xs), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cov := CoefficientOfVariation([]float64{5, 5, 5}); cov != 0 {
		t.Fatalf("constant cov = %v", cov)
	}
	if cov := CoefficientOfVariation([]float64{-1, 1}); !math.IsInf(cov, 1) {
		t.Fatalf("zero-mean cov = %v, want +Inf", cov)
	}
	if cov := CoefficientOfVariation([]float64{0, 0}); cov != 0 {
		t.Fatalf("all-zero cov = %v", cov)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if cov := CoefficientOfVariation(xs); !approx(cov, 0.4, 1e-12) {
		t.Fatalf("cov = %v, want 0.4", cov)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]int{5, 5}); !approx(h, 1, 1e-12) {
		t.Fatalf("balanced entropy = %v", h)
	}
	if h := Entropy([]int{10, 0}); h != 0 {
		t.Fatalf("pure entropy = %v", h)
	}
	if h := Entropy([]int{1, 1, 1, 1}); !approx(h, 2, 1e-12) {
		t.Fatalf("4-way entropy = %v", h)
	}
	if Entropy(nil) != 0 {
		t.Fatal("empty entropy != 0")
	}
}

func TestInformationGain(t *testing.T) {
	// Perfect split of a balanced binary population gains the full bit.
	g := InformationGain([]int{4, 4}, []int{4, 0}, []int{0, 4})
	if !approx(g, 1, 1e-12) {
		t.Fatalf("perfect split gain = %v", g)
	}
	// A useless split gains nothing.
	g = InformationGain([]int{4, 4}, []int{2, 2}, []int{2, 2})
	if !approx(g, 0, 1e-12) {
		t.Fatalf("useless split gain = %v", g)
	}
}

func TestInformationGainNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(3)
		left := make([]int, k)
		right := make([]int, k)
		parent := make([]int, k)
		for c := 0; c < k; c++ {
			left[c] = rng.Intn(10)
			right[c] = rng.Intn(10)
			parent[c] = left[c] + right[c]
		}
		if g := InformationGain(parent, left, right); g < -1e-9 {
			t.Fatalf("negative gain %v for left=%v right=%v", g, left, right)
		}
	}
}

func TestChiSquared(t *testing.T) {
	// Independent table has chi2 = 0.
	indep := [][]float64{{10, 20}, {20, 40}}
	if c := ChiSquared(indep); !approx(c, 0, 1e-9) {
		t.Fatalf("independent chi2 = %v", c)
	}
	// Known value: 2x2 table {{10,0},{0,10}} has chi2 = 20.
	dep := [][]float64{{10, 0}, {0, 10}}
	if c := ChiSquared(dep); !approx(c, 20, 1e-9) {
		t.Fatalf("dependent chi2 = %v, want 20", c)
	}
	if ChiSquared(nil) != 0 {
		t.Fatal("empty chi2 != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !approx(q, 2.5, 1e-12) {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	// xs must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestTopTwo(t *testing.T) {
	p1, p2 := TopTwo([]float64{0.2, 0.5, 0.3})
	if p1 != 0.5 || p2 != 0.3 {
		t.Fatalf("TopTwo = %v, %v", p1, p2)
	}
	p1, p2 = TopTwo([]float64{1})
	if p1 != 1 || p2 != 0 {
		t.Fatalf("single-class TopTwo = %v, %v", p1, p2)
	}
}

func TestArgMaxArgMin(t *testing.T) {
	xs := []float64{1, 5, 5, -2}
	if i := ArgMax(xs); i != 1 {
		t.Fatalf("argmax = %d", i)
	}
	if i := ArgMin(xs); i != 3 {
		t.Fatalf("argmin = %d", i)
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Fatal("empty arg extremum != -1")
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if d := Euclidean(a, b); !approx(d, 5, 1e-12) {
		t.Fatalf("euclidean = %v", d)
	}
	if d := SquaredEuclidean(a, b); !approx(d, 25, 1e-12) {
		t.Fatalf("squared = %v", d)
	}
}

func TestMinSlidingDistance(t *testing.T) {
	series := []float64{0, 0, 1, 2, 3, 0, 0}
	query := []float64{1, 2, 3}
	d, at := MinSlidingDistance(query, series)
	if !approx(d, 0, 1e-12) || at != 2 {
		t.Fatalf("got d=%v at=%d", d, at)
	}
	// Query longer than series.
	d, at = MinSlidingDistance(make([]float64, 10), series)
	if !math.IsInf(d, 1) || at != -1 {
		t.Fatalf("long query: d=%v at=%d", d, at)
	}
}

func TestMinSlidingDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(30)
		m := 2 + rng.Intn(5)
		series := make([]float64, n)
		query := make([]float64, m)
		for i := range series {
			series[i] = rng.NormFloat64()
		}
		for i := range query {
			query[i] = rng.NormFloat64()
		}
		got, _ := MinSlidingDistance(query, series)
		want := math.Inf(1)
		for off := 0; off+m <= n; off++ {
			want = math.Min(want, Euclidean(query, series[off:off+m]))
		}
		if !approx(got, want, 1e-9) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestSoftmax(t *testing.T) {
	out := Softmax([]float64{1, 2, 3}, nil)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if !approx(sum, 1, 1e-12) {
		t.Fatalf("softmax sum = %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax order wrong: %v", out)
	}
	// Stability under large logits.
	out = Softmax([]float64{1000, 1000}, out[:2])
	if !approx(out[0], 0.5, 1e-12) {
		t.Fatalf("large-logit softmax = %v", out)
	}
}
