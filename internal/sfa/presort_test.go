package sfa

import (
	"math"
	"math/rand"
	"testing"
)

// checkFitFromSorted fits a subset of a pool of windows two ways: with
// FitFromCoefficients on the subset in pool order, and with
// FitFromSorted on the pool's sorted columns filtered to the subset. The
// pool holds nSeries series of maxWin windows; the subset keeps the
// windows of the series in members whose index is below nWin and a
// multiple of stride, as a prefix fit with subsampling does.
func checkFitFromSorted(t *testing.T, rng *rand.Rand, nSeries, maxWin, numClasses, levels int, members []bool, nWin, stride int, zeros bool) {
	t.Helper()
	const positions = 4
	labels := make([]int, nSeries)
	for i := range labels {
		labels[i] = rng.Intn(numClasses)
	}
	pool := make([][]float64, nSeries*maxWin)
	for i := range pool {
		c := make([]float64, positions)
		for p := range c {
			c[p] = float64(rng.Intn(levels))*0.37 - 0.74
			if zeros && rng.Intn(4) == 0 {
				c[p] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
		pool[i] = c
	}
	var subset [][]float64
	var subLabels []int
	for s := 0; s < nSeries; s++ {
		if !members[s] {
			continue
		}
		for k := 0; k < nWin; k += stride {
			subset = append(subset, pool[s*maxWin+k])
			subLabels = append(subLabels, labels[s])
		}
	}
	if len(subset) == 0 {
		return
	}
	cfg := Config{WordLength: positions, Alphabet: 4}
	want, err := FitFromCoefficients(subset, subLabels, numClasses, cfg)
	if err != nil {
		t.Fatal(err)
	}
	values := make([][]float64, positions)
	lbls := make([][]int, positions)
	for p := 0; p < positions; p++ {
		col, ok := SortColumn(pool, p)
		if !ok {
			t.Fatal("SortColumn refused a pool without NaN")
		}
		for x, id := range col.IDs {
			s, k := int(id)/maxWin, int(id)%maxWin
			if members[s] && k < nWin && k%stride == 0 {
				values[p] = append(values[p], col.Values[x])
				lbls[p] = append(lbls[p], labels[s])
			}
		}
	}
	got, err := FitFromSorted(values, lbls, numClasses, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.WordLength() != want.WordLength() {
		t.Fatalf("word length %d, want %d", got.WordLength(), want.WordLength())
	}
	for p := range want.boundaries {
		g, w := got.boundaries[p], want.boundaries[p]
		if len(g) != len(w) {
			t.Fatalf("position %d: boundaries %v, want %v", p, g, w)
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("position %d: boundaries %v, want %v", p, g, w)
			}
		}
	}
}

func TestFitFromSortedMatchesFitFromCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		nSeries := 1 + rng.Intn(8)
		maxWin := 1 + rng.Intn(40)
		members := make([]bool, nSeries)
		for i := range members {
			members[i] = rng.Intn(3) > 0
		}
		checkFitFromSorted(t, rng, nSeries, maxWin, 2+rng.Intn(3), 1+rng.Intn(12),
			members, 1+rng.Intn(maxWin), 1+rng.Intn(3), trial%2 == 0)
	}
}

func TestSortColumnRefusesNaN(t *testing.T) {
	if _, ok := SortColumn([][]float64{{1}, {math.NaN()}, {0}}, 0); ok {
		t.Fatal("SortColumn sorted a column holding NaN")
	}
}

// FuzzFitFromSorted holds the presorted fit to FitFromCoefficients over
// fuzzed pools, subsets, strides and tie structures, ±0 included.
func FuzzFitFromSorted(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(1), uint8(4), uint8(0b10110), uint8(20), uint8(1), true)
	f.Add(int64(2), uint8(3), uint8(12), uint8(2), uint8(2), uint8(0b111), uint8(12), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, nSeries, maxWin, classes, levels, mask, nWin, stride uint8, zeros bool) {
		ns := 1 + int(nSeries)%8
		mw := 1 + int(maxWin)%64
		members := make([]bool, ns)
		for i := range members {
			members[i] = mask>>i&1 == 1
		}
		checkFitFromSorted(t, rand.New(rand.NewSource(seed)), ns, mw, 2+int(classes)%4, 1+int(levels)%40,
			members, 1+int(nWin)%mw, 1+int(stride)%4, zeros)
	})
}
