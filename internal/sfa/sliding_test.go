package sfa

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/fft"
)

func TestSlidingCoefficientsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{4, 7, 16, 33} {
		series := make([]float64, 200)
		for i := range series {
			series[i] = rng.NormFloat64() * 3
		}
		for _, drop := range []bool{false, true} {
			sliding := SlidingCoefficients(series, w, 4, drop)
			if len(sliding) != len(series)-w+1 {
				t.Fatalf("w=%d: %d windows, want %d", w, len(sliding), len(series)-w+1)
			}
			for off, got := range sliding {
				want := fft.Coefficients(series[off:off+w], (4+1)/2+1, drop)
				if len(want) > 4 {
					want = want[:4]
				}
				if len(got) != len(want) {
					t.Fatalf("w=%d off=%d drop=%v: %d values, want %d", w, off, drop, len(got), len(want))
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-6 {
						t.Fatalf("w=%d off=%d drop=%v value %d: %v vs direct %v", w, off, drop, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSlidingCoefficientsLongSeriesNoDrift(t *testing.T) {
	// Longer than the resync interval: drift must stay bounded.
	rng := rand.New(rand.NewSource(2))
	series := make([]float64, 3000)
	for i := range series {
		series[i] = rng.NormFloat64() * 10
	}
	w := 64
	sliding := SlidingCoefficients(series, w, 4, false)
	for _, off := range []int{0, 511, 512, 1500, len(sliding) - 1} {
		want := fft.Coefficients(series[off:off+w], 3, false)[:4]
		for i := range want {
			if math.Abs(sliding[off][i]-want[i]) > 1e-5 {
				t.Fatalf("off=%d value %d drifted: %v vs %v", off, i, sliding[off][i], want[i])
			}
		}
	}
}

func TestSlidingShortSeries(t *testing.T) {
	out := SlidingCoefficients([]float64{1, 2, 3}, 10, 4, false)
	if len(out) != 1 {
		t.Fatalf("short series windows = %d", len(out))
	}
	if SlidingCoefficients(nil, 0, 4, false) != nil {
		t.Fatal("w=0 should yield nil")
	}
}

// TestWordsSlidingMatchesWordPerWindow checks the words WEASEL builds
// its bags from, one per sliding coefficient vector, against Word on
// each window.
func TestWordsSlidingMatchesWordPerWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var windows [][]float64
	var labels []int
	series := make([][]float64, 30)
	for i := range series {
		s := make([]float64, 40)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		series[i] = s
		for _, win := range Windows(s, 8) {
			windows = append(windows, win)
			labels = append(labels, i%2)
		}
	}
	tr, err := Fit(windows, labels, 2, Config{WordLength: 4, Alphabet: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series[:5] {
		var fast []uint64
		for _, c := range SlidingCoefficients(s, 8, tr.WordLength(), false) {
			fast = append(fast, tr.WordFromCoefficients(c))
		}
		wins := Windows(s, 8)
		if len(fast) != len(wins) {
			t.Fatalf("word counts differ: %d vs %d", len(fast), len(wins))
		}
		for i, win := range wins {
			if fast[i] != tr.Word(win) {
				t.Fatalf("window %d: sliding word %d != direct word %d", i, fast[i], tr.Word(win))
			}
		}
	}
}

func TestFitFromCoefficientsMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var windows [][]float64
	var labels []int
	for i := 0; i < 60; i++ {
		w := make([]float64, 16)
		for j := range w {
			w[j] = rng.NormFloat64() + float64(i%2)*2
		}
		windows = append(windows, w)
		labels = append(labels, i%2)
	}
	direct, err := Fit(windows, labels, 2, Config{WordLength: 4, Alphabet: 4})
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([][]float64, len(windows))
	for i, w := range windows {
		coeffs[i] = fft.Coefficients(w, 3, false)
	}
	fromCoeffs, err := FitFromCoefficients(coeffs, labels, 2, Config{WordLength: 4, Alphabet: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range windows {
		if direct.Word(w) != fromCoeffs.Word(w) {
			t.Fatal("transforms disagree")
		}
	}
}

func TestFitFromCoefficientsErrors(t *testing.T) {
	if _, err := FitFromCoefficients(nil, nil, 2, Config{}); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := FitFromCoefficients([][]float64{{1}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("mismatch accepted")
	}
	if _, err := FitFromCoefficients([][]float64{{1}}, []int{0}, 2, Config{Alphabet: 5}); err == nil {
		t.Fatal("bad alphabet accepted")
	}
}
