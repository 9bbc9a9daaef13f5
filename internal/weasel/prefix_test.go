package weasel

import (
	"math"
	"math/rand"
	"testing"
)

// prefixTrainData builds a small separable two-class training set.
func prefixTrainData(rng *rand.Rand, n, L int) ([][]float64, []int) {
	series := make([][]float64, n)
	labels := make([]int, n)
	for i := range series {
		class := i % 2
		labels[i] = class
		s := make([]float64, L)
		for t := range s {
			x := float64(t) / float64(L)
			s[t] = float64(class)*2 + math.Sin(2*math.Pi*(1+float64(class))*x) + rng.NormFloat64()*0.1
		}
		series[i] = s
	}
	return series, labels
}

// TestPrefixEvaluatorMatchesPredict checks the incremental bag against
// the classic path: for several configurations and every prefix length,
// ProbaAt must equal PredictProbaSeries on the truncated series exactly
// (same words, same counts, same vector, same head — so the floats are
// bit-identical).
func TestPrefixEvaluatorMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const L = 30
	train, labels := prefixTrainData(rng, 14, L)

	configs := map[string]Config{
		"default":     {},
		"derivatives": {Derivatives: true},
		"nobigrams":   {NoBigrams: true},
		"sfanorm":     {SFANorm: true},
		"shortwords":  {WordLength: 6, MaxWindows: 3},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			m := New(cfg)
			if err := m.FitSeries(train, labels, 2); err != nil {
				t.Fatalf("fit: %v", err)
			}
			probe := make([]float64, L+6) // longer than training: clamps exercised upstream
			for i := range probe {
				x := float64(i) / float64(L)
				probe[i] = 2 + math.Sin(2*math.Pi*2*x) + rng.NormFloat64()*0.1
			}

			pc := m.NewPrefixCache()
			ev := m.NewPrefixEvaluator(pc)
			if ev == nil {
				t.Fatal("evaluator unexpectedly nil")
			}
			for plen := 0; plen <= len(probe); plen++ {
				pc.Extend(probe[:plen])
				got := ev.ProbaAt(plen)
				want := m.PredictProbaSeries(probe[:plen])
				if len(got) != len(want) {
					t.Fatalf("plen %d: %d probs, want %d", plen, len(got), len(want))
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("plen %d class %d: %v != %v (not bit-identical)", plen, c, got[c], want[c])
					}
				}
			}
		})
	}
}

// TestPrefixEvaluatorSharedCache checks that two models with identical
// SFA settings but different heads can share one cache — the TEASER /
// ECEC arrangement — and both stay exact.
func TestPrefixEvaluatorSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const L = 26
	train, labels := prefixTrainData(rng, 12, L)

	cfgA := Config{Derivatives: true}
	cfgA.LogReg.Seed = 1
	cfgB := Config{Derivatives: true}
	cfgB.LogReg.Seed = 99
	a, b := New(cfgA), New(cfgB)
	if err := a.FitSeries(train, labels, 2); err != nil {
		t.Fatal(err)
	}
	// Model b trains on truncated series, like a checkpoint pipeline.
	short := make([][]float64, len(train))
	for i, s := range train {
		short[i] = s[:L/2]
	}
	if err := b.FitSeries(short, labels, 2); err != nil {
		t.Fatal(err)
	}

	probe := train[1]
	pc := a.NewPrefixCache()
	evA, evB := a.NewPrefixEvaluator(pc), b.NewPrefixEvaluator(pc)
	if evA == nil || evB == nil {
		t.Fatal("evaluator unexpectedly nil")
	}
	pc.Extend(probe)
	for plen := 1; plen <= L; plen += 3 {
		for tag, pair := range map[string][2][]float64{
			"a": {evA.ProbaAt(plen), a.PredictProbaSeries(probe[:plen])},
			"b": {evB.ProbaAt(plen), b.PredictProbaSeries(probe[:plen])},
		} {
			got, want := pair[0], pair[1]
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("model %s plen %d class %d: %v != %v", tag, plen, c, got[c], want[c])
				}
			}
		}
	}
}

// TestPrefixEvaluatorDeclines checks the configurations that cannot run
// incrementally are refused rather than silently wrong.
func TestPrefixEvaluatorDeclines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	train, labels := prefixTrainData(rng, 10, 24)

	plain := New(Config{})
	if err := plain.FitSeries(train, labels, 2); err != nil {
		t.Fatal(err)
	}
	if plain.NewPrefixEvaluator(NewPrefixCache(9, true)) != nil {
		t.Fatal("mismatched cache settings must be refused")
	}
	if (&Model{}).NewPrefixEvaluator(plain.NewPrefixCache()) != nil {
		t.Fatal("unfitted model must be refused")
	}

	multi := NewMUSE(Config{})
	instances := make([][][]float64, len(train))
	for i, s := range train {
		instances[i] = [][]float64{s, s}
	}
	if err := multi.Fit(instances, labels, 2); err != nil {
		t.Fatal(err)
	}
	if multi.NewPrefixEvaluator(multi.NewPrefixCache()) != nil {
		t.Fatal("multivariate model must decline series evaluation")
	}
}
