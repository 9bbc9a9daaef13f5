package sfa

import (
	"math/rand"
	"sort"
	"testing"
)

// The helpers below run one fresh splitter per call under the names the
// kernel tests use.

func bestIGSplit(sortedValues []float64, labels []int, numClasses, lo, hi int) int {
	return newSplitter(len(sortedValues), numClasses).bestSplit(sortedValues, labels, lo, hi)
}

func chooseBoundaries(sortedValues []float64, labels []int, numClasses, bins int) []float64 {
	return newSplitter(len(sortedValues), numClasses).boundaries(sortedValues, labels, bins)
}

func fitBoundariesAt(coeffs [][]float64, labels []int, numClasses, alphabet, pos int) []float64 {
	return newSplitter(len(coeffs), numClasses).boundariesAt(coeffs, labels, alphabet, pos)
}

// FuzzBestIGSplit holds the screened split search to the exhaustive
// refBestIGSplit. Each byte of data is one window's label; values are
// drawn from levels distinct values (few levels make long tie runs) and
// sorted. mirror makes the label sequence a palindrome: on distinct
// values the splits at s and n−s then tie in real arithmetic and differ
// only by rounding, which is where a screen could pick the wrong one.
// One splitter serves every range of one input, as in a Fit.
func FuzzBestIGSplit(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0}, uint8(0), uint8(3), int64(1), false)
	f.Fuzz(func(t *testing.T, data []byte, classes, levels uint8, seed int64, mirror bool) {
		n := len(data)
		if n < 2 || n > 1024 {
			return
		}
		numClasses := 2 + int(classes)%39
		labels := make([]int, n)
		for i, b := range data {
			labels[i] = int(b) % numClasses
		}
		if mirror {
			for i := 0; i < n/2; i++ {
				labels[n-1-i] = labels[i]
			}
		}
		rng := rand.New(rand.NewSource(seed))
		nLevels := n
		if levels != 0 {
			nLevels = int(levels)
		}
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(rng.Intn(nLevels)) * 0.37
		}
		sort.Float64s(values)
		sp := newSplitter(n, numClasses)
		ranges := [][2]int{{0, n}, {0, n / 2}, {n / 3, n}, {n / 4, n - n/4}}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			if hi-lo < 2 {
				continue
			}
			if got, want := sp.bestSplit(values, labels, lo, hi), refBestIGSplit(values, labels, numClasses, lo, hi); got != want {
				t.Fatalf("n=%d classes=%d levels=%d mirror=%v [%d, %d): split %d, want %d",
					n, numClasses, nLevels, mirror, lo, hi, got, want)
			}
		}
	})
}
