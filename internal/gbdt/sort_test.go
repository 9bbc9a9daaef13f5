package gbdt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortByValueMatchesSortSlice pins sortByValue to the permutation
// the reflection sort it replaced produced — sort.Slice over sample
// indices with the same < — on columns where tie order is all that
// differs: few distinct values, NaNs mixed in, ±0, and lengths on both
// sides of pdqsort's insertion-sort cutoff.
func TestSortByValueMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(400)
		distinct := 1 + rng.Intn(8)
		col := make([]float64, n)
		for i := range col {
			switch r := rng.Intn(20); {
			case r == 0:
				col[i] = math.NaN()
			case r == 1:
				col[i] = math.Copysign(0, -1)
			default:
				col[i] = float64(rng.Intn(distinct))
			}
		}
		// A shuffled subset, as grow hands bestSplit after a split.
		samples := rng.Perm(n)[:1+rng.Intn(n)]

		want := append([]int(nil), samples...)
		sort.Slice(want, func(a, b int) bool { return col[want[a]] < col[want[b]] })

		got := make([]valueSample, len(samples))
		for k, i := range samples {
			got[k] = valueSample{v: col[i], i: i}
		}
		sortByValue(got)
		for k := range want {
			if got[k].i != want[k] {
				t.Fatalf("trial %d (n=%d, %d distinct): position %d holds sample %d, sort.Slice put %d there",
					trial, n, distinct, k, got[k].i, want[k])
			}
		}
	}
}
