package weasel

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/goetsc/goetsc/internal/logreg"
)

// sameFitted requires two fitted models to agree on everything Fit
// sets: window sizes, every transform's gob form (config, boundary bits),
// the vocabulary, and the head's probabilities on every probe.
func sameFitted(t *testing.T, got, want *Model, probes [][]float64) {
	t.Helper()
	if !reflect.DeepEqual(got.windowSizes, want.windowSizes) {
		t.Fatalf("window sizes %v, want %v", got.windowSizes, want.windowSizes)
	}
	if len(got.transforms) != len(want.transforms) {
		t.Fatalf("%d transforms, want %d", len(got.transforms), len(want.transforms))
	}
	for cw, wt := range want.transforms {
		gt, ok := got.transforms[cw]
		if !ok {
			t.Fatalf("no transform for %+v", cw)
		}
		var gb, wb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(gt); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&wb).Encode(wt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("transform %+v differs", cw)
		}
	}
	if !reflect.DeepEqual(got.vocab, want.vocab) {
		t.Fatal("vocabularies differ")
	}
	for _, p := range probes {
		g, w := got.PredictProbaSeries(p), want.PredictProbaSeries(p)
		for c := range w {
			if math.Float64bits(g[c]) != math.Float64bits(w[c]) && !(math.IsNaN(g[c]) && math.IsNaN(w[c])) {
				t.Fatalf("probabilities %v, want %v", g, w)
			}
		}
	}
}

// TestSharedMatchesFitSeries fits every (prefix length, member subset)
// through Shared and through FitSeries on the truncated series, and
// requires the same model and the same held-out probabilities, bit for
// bit. The configurations cover the truncated-window fallback (prefixes
// no longer than a window), the derivative channel, subsampling strides
// and a series holding NaN.
func TestSharedMatchesFitSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const L = 40
	base, labels := prefixTrainData(rng, 12, L)
	withNaN := make([][]float64, len(base))
	for i, s := range base {
		withNaN[i] = append([]float64(nil), s...)
	}
	withNaN[3][17] = math.NaN()
	cases := []struct {
		name   string
		series [][]float64
		cfg    Config
	}{
		{"default", base, Config{MaxWindows: 3}},
		{"derivatives", base, Config{MaxWindows: 4, Derivatives: true}},
		{"stride", base, Config{MaxWindows: 3, MaxFitWindows: 50}},
		{"sfanorm nobigrams", base, Config{SFANorm: true, NoBigrams: true}},
		{"nan", withNaN, Config{MaxWindows: 3}},
	}
	lengths := []int{2, 3, 7, 14, 27, 40}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewShared(tc.series, labels, 2, tc.cfg, lengths)
			if sh == nil {
				t.Fatal("NewShared refused equal-length series")
			}
			subsets := [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {0, 1, 3, 4, 6, 8, 9, 11}, {2, 5, 7, 10}}
			// Ascending, as checkpoint.Train calls it, then back down
			// (released columns are rebuilt) and a length NewShared was
			// not given.
			var order []int
			order = append(order, lengths...)
			for i := len(lengths) - 1; i >= 0; i-- {
				order = append(order, lengths[i])
			}
			order = append(order, 33)
			for _, plen := range order {
				for _, members := range subsets {
					trX := make([][]float64, len(members))
					trY := make([]int, len(members))
					for a, j := range members {
						trX[a], trY[a] = tc.series[j][:plen], labels[j]
					}
					cfg := tc.cfg
					cfg.LogReg.Seed = int64(plen)
					want := New(cfg)
					wantErr := want.FitSeries(trX, trY, 2)
					got, err := sh.Fit(cfg, members, plen)
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("plen %d: error %v, want %v", plen, err, wantErr)
					}
					if err != nil {
						continue
					}
					probes := make([][]float64, len(tc.series))
					for j, s := range tc.series {
						probes[j] = s[:plen]
					}
					sameFitted(t, got, want, probes)
					for j, s := range tc.series {
						g, w := sh.PredictProba(got, j, plen), want.PredictProbaSeries(s[:plen])
						for c := range w {
							if math.Float64bits(g[c]) != math.Float64bits(w[c]) && !(math.IsNaN(g[c]) && math.IsNaN(w[c])) {
								t.Fatalf("plen %d series %d: %v, want %v", plen, j, g, w)
							}
						}
					}
				}
			}
		})
	}
}

func TestNewSharedRefusesUnequalLengths(t *testing.T) {
	if NewShared([][]float64{{1, 2, 3}, {1, 2}}, []int{0, 1}, 2, Config{}, []int{2}) != nil {
		t.Fatal("NewShared accepted series of differing lengths")
	}
}

func TestSharedFitRefusesOtherSFASettings(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	series, labels := prefixTrainData(rng, 6, 20)
	sh := NewShared(series, labels, 2, Config{}, []int{20})
	if _, err := sh.Fit(Config{WordLength: 6}, []int{0, 1, 2, 3}, 20); err == nil {
		t.Fatal("Fit accepted a word length the shared work was not built for")
	}
	if _, err := sh.Fit(Config{LogReg: logreg.Config{Seed: 9}}, []int{0, 1, 2, 3}, 20); err != nil {
		t.Fatal(err)
	}
}
