package sfa

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/goetsc/goetsc/internal/stats"
)

// refBestIGSplit is bestIGSplit scoring every split with
// stats.InformationGain, parent entropy recomputed each time.
func refBestIGSplit(sortedValues []float64, labels []int, numClasses, lo, hi int) int {
	parent := make([]int, numClasses)
	for i := lo; i < hi; i++ {
		parent[labels[i]]++
	}
	left := make([]int, numClasses)
	right := append([]int(nil), parent...)
	best, bestGain := -1, 1e-9
	for s := lo + 1; s < hi; s++ {
		left[labels[s-1]]++
		right[labels[s-1]]--
		if sortedValues[s] == sortedValues[s-1] {
			continue
		}
		if g := stats.InformationGain(parent, left, right); g > bestGain {
			best, bestGain = s, g
		}
	}
	return best
}

// refFitBoundariesAt sorts with the reflection-based sort.Slice.
func refFitBoundariesAt(coeffs [][]float64, labels []int, numClasses, alphabet, pos int) []float64 {
	type valueLabel struct {
		v     float64
		label int
	}
	vls := make([]valueLabel, len(coeffs))
	for i, c := range coeffs {
		v := 0.0
		if pos < len(c) {
			v = c[pos]
		}
		vls[i] = valueLabel{v: v, label: labels[i]}
	}
	sort.Slice(vls, func(a, b int) bool { return vls[a].v < vls[b].v })
	values := make([]float64, len(vls))
	lbls := make([]int, len(vls))
	for i, vl := range vls {
		values[i] = vl.v
		lbls[i] = vl.label
	}
	return chooseBoundaries(values, lbls, numClasses, alphabet)
}

// tiedValues draws n values from only a few distinct levels, so runs of
// equal values (where no split may fall) are common.
func tiedValues(rng *rand.Rand, n, levels int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(levels)) * 0.37
	}
	return v
}

func TestBestIGSplitMatchesInformationGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(60)
		numClasses := 2 + rng.Intn(4)
		values := tiedValues(rng, n, 1+rng.Intn(n))
		sort.Float64s(values)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(numClasses)
		}
		lo := rng.Intn(n - 1)
		hi := lo + 2 + rng.Intn(n-lo-1)
		if got, want := bestIGSplit(values, labels, numClasses, lo, hi), refBestIGSplit(values, labels, numClasses, lo, hi); got != want {
			t.Fatalf("trial %d [%d, %d): split %d, want %d", trial, lo, hi, got, want)
		}
	}
}

func TestFitBoundariesAtMatchesReflectionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		numClasses := 2 + rng.Intn(3)
		coeffs := make([][]float64, n)
		labels := make([]int, n)
		vals := tiedValues(rng, n, 1+rng.Intn(20))
		for i := range coeffs {
			labels[i] = rng.Intn(numClasses)
			coeffs[i] = []float64{vals[i], rng.NormFloat64()}
		}
		for _, alphabet := range []int{2, 4, 8} {
			for pos := 0; pos < 2; pos++ {
				got := fitBoundariesAt(coeffs, labels, numClasses, alphabet, pos)
				want := refFitBoundariesAt(coeffs, labels, numClasses, alphabet, pos)
				if len(got) != len(want) {
					t.Fatalf("trial %d alphabet %d pos %d: %v, want %v", trial, alphabet, pos, got, want)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d alphabet %d pos %d: %v, want %v", trial, alphabet, pos, got, want)
					}
				}
			}
		}
	}
}
