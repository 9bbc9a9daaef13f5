package strut

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/goetsc/goetsc/internal/metrics"
)

// searchNaive is the exhaustive truncation search the pruned walk
// replaced: it scores every candidate, picks the best with the same
// 1e-12 rule (the first of near-ties wins), then refines exactly as
// search does.
func searchNaive(candidates []int, length int, cfg Config, score func(t int) (float64, error)) (int, []EvalPoint, error) {
	scores := make(map[int]float64, len(candidates))
	var evals []EvalPoint
	for _, t := range candidates {
		s, err := score(t)
		if err != nil {
			return 0, nil, err
		}
		scores[t] = s
		evals = append(evals, EvalPoint{Length: t, Score: s})
	}
	best := candidates[0]
	for _, t := range candidates {
		if scores[t] > scores[best]+1e-12 {
			best = t
		}
	}
	if cfg.Refine {
		lo := cfg.MinLength
		for _, t := range candidates {
			if t < best {
				lo = t
			}
		}
		hi := best
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			s, err := score(mid)
			if err != nil {
				return 0, nil, err
			}
			evals = append(evals, EvalPoint{Length: mid, Score: s})
			if s >= scores[best]-cfg.Tolerance {
				hi = mid
			} else {
				lo = mid
			}
		}
		best = hi
	}
	return best, evals, nil
}

// checkSearch runs the pruned and the exhaustive search on one score
// function. They must choose the same length; the pruned walk must score
// each length at most once, its grid points must be a prefix of the
// candidates, and every length it scores must carry the reference's
// score. With Refine on, both must probe the same lengths. It returns
// how many grid points the pruned walk scored.
func checkSearch(t *testing.T, candidates []int, length int, cfg Config, score func(t int) float64) int {
	t.Helper()
	calls := map[int]int{}
	counted := func(tr int) (float64, error) {
		calls[tr]++
		return score(tr), nil
	}
	plain := func(tr int) (float64, error) { return score(tr), nil }
	best, evals, err := search(candidates, length, cfg, counted)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, wantEvals, _ := searchNaive(candidates, length, cfg, plain)
	ctx := fmt.Sprintf("candidates %v length %d metric %d refine %v", candidates, length, cfg.Metric, cfg.Refine)
	if best != wantBest {
		t.Fatalf("%s: best %d, reference %d\n pruned    %v\n reference %v", ctx, best, wantBest, evals, wantEvals)
	}
	for tr, n := range calls {
		if n > 1 {
			t.Fatalf("%s: length %d scored %d times", ctx, tr, n)
		}
	}
	ref := map[int]float64{}
	for _, p := range wantEvals {
		ref[p.Length] = p.Score
	}
	grid := 0
	for grid < len(evals) && grid < len(candidates) && evals[grid].Length == candidates[grid] {
		grid++
	}
	if grid == 0 {
		t.Fatalf("%s: first candidate not scored: %v", ctx, evals)
	}
	for _, p := range evals {
		if s, ok := ref[p.Length]; !ok || math.Float64bits(s) != math.Float64bits(p.Score) {
			t.Fatalf("%s: length %d scored %v, reference %v (present %v)", ctx, p.Length, p.Score, s, ok)
		}
	}
	if got, want := evals[grid:], wantEvals[len(candidates):]; !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
		t.Fatalf("%s: refinement probes %v, reference %v", ctx, got, want)
	}
	return grid
}

// accuracyScore returns the metric's score at t of a validation split of
// n where k(t) instances are right: HarmonicMean combines k/n with t's
// earliness exactly as Classifier.score does, Accuracy is k/n, and
// MacroF1 stands in as k/n too (any value in [0, 1] is a valid F1).
// jitter(t) is subtracted to place scores within 1e-12 of each other.
func accuracyScore(m Metric, length, n int, k func(t int) int, jitter func(t int) float64) func(t int) float64 {
	return func(t int) float64 {
		acc := float64(k(t)) / float64(n)
		s := acc
		if m == HarmonicMean {
			s = metrics.HarmonicMean(acc, earliness(t, length))
		}
		return math.Max(0, s-jitter(t))
	}
}

func noJitter(int) float64 { return 0 }

func TestTruncationSearchMatchesExhaustive(t *testing.T) {
	const L, n = 60, 20 // default grid candidates: 3, 12, 24, 36, 48, 60
	steps := func(ks ...int) func(t int) int {
		// ks[i] applies on the i-th of len(ks) equal spans of 0..L.
		return func(t int) int { return ks[min(t*len(ks)/(L+1), len(ks)-1)] }
	}
	acc := func(m Metric, ks ...int) func(t int) float64 {
		return accuracyScore(m, L, n, steps(ks...), noJitter)
	}
	// fixed scores the listed lengths as given and any other length 0.
	fixed := func(scores map[int]float64) func(t int) float64 {
		return func(t int) float64 { return scores[t] }
	}
	cases := []struct {
		name   string
		length int
		metric Metric
		refine bool
		score  func(t int) float64
		grid   int // grid points the pruned walk scores
	}{
		// HarmonicMean: a perfect accuracy at 36 scores 0.571, at 24 0.75.
		{name: "hm rising", length: L, metric: HarmonicMean,
			score: acc(HarmonicMean, 10, 12, 16, 19, 20, 20), grid: 3},
		{name: "hm exact 1 at first point", length: L, metric: HarmonicMean,
			score: acc(HarmonicMean, 20), grid: 1},
		{name: "hm perfect accuracy later wins", length: L, metric: HarmonicMean,
			score: acc(HarmonicMean, 16, 20, 20, 20, 20, 20), grid: 2},
		{name: "hm late signal cannot win", length: L, metric: HarmonicMean,
			score: accuracyScore(HarmonicMean, L, 7, steps(3, 3, 3, 3, 6, 7, 7), noJitter), grid: 3},
		{name: "hm all zero", length: L, metric: HarmonicMean,
			score: acc(HarmonicMean, 0), grid: 5},
		{name: "hm ties within 1e-12", length: L, metric: HarmonicMean,
			score: fixed(map[int]float64{3: 0.6, 12: 0.6 + 5e-13, 24: 0.6 + 1.5e-12}), grid: 3},
		{name: "hm bound equals best", length: L, metric: HarmonicMean,
			score: fixed(map[int]float64{3: 0.5, 12: 0.55, 24: metrics.HarmonicMean(1, earliness(36, L)), 36: metrics.HarmonicMean(1, earliness(36, L))}), grid: 3},
		{name: "hm refine", length: L, metric: HarmonicMean, refine: true,
			score: acc(HarmonicMean, 8, 15, 19, 20), grid: 3},
		{name: "accuracy reaches 1", length: L, metric: Accuracy,
			score: acc(Accuracy, 10, 14, 18, 20), grid: 5},
		{name: "accuracy never 1", length: L, metric: Accuracy,
			score: acc(Accuracy, 10, 14, 18, 19), grid: 6},
		{name: "accuracy ties within 1e-12", length: L, metric: Accuracy,
			score: fixed(map[int]float64{3: 0.5, 12: 0.5 + 9e-13, 24: 0.5 + 1.1e-12, 36: 0.5 + 2e-12, 48: 0.5, 60: 0.5 + 3e-12}), grid: 6},
		{name: "accuracy refine", length: L, metric: Accuracy, refine: true,
			score: acc(Accuracy, 5, 19, 19, 20), grid: 5},
		{name: "macro-f1 all zero", length: L, metric: MacroF1,
			score: acc(MacroF1, 0), grid: 6},
		{name: "macro-f1 exact 1 first", length: L, metric: MacroF1, refine: true,
			score: acc(MacroF1, 20), grid: 1},
		{name: "single candidate", length: 3, metric: HarmonicMean,
			score: acc(HarmonicMean, 20), grid: 1},
		{name: "single candidate below min length", length: 2, metric: Accuracy, refine: true,
			score: acc(Accuracy, 11), grid: 1},
	}
	grid := []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Metric: tc.metric, Refine: tc.refine, Tolerance: 0.02, MinLength: 3}
			candidates := candidateLengths(grid, tc.length, cfg.MinLength)
			if scored := checkSearch(t, candidates, tc.length, cfg, tc.score); scored != tc.grid {
				t.Fatalf("scored %d grid points, want %d", scored, tc.grid)
			}
		})
	}
}

// FuzzTruncationSearch holds the pruned walk to the exhaustive search
// on grids, lengths, metrics, validation sizes and accuracy profiles
// drawn from the input, with near-ties within 1e-12 from its low bits.
func FuzzTruncationSearch(f *testing.F) {
	f.Add([]byte{5, 20, 40, 60, 80, 100}, []byte{10, 12, 16, 19, 20, 20}, uint16(60), uint8(20), uint8(0), uint8(3), false, uint8(2))
	f.Add([]byte{1, 50, 99}, []byte{7, 7, 7}, uint16(48), uint8(7), uint8(1), uint8(3), true, uint8(5))
	f.Add([]byte{10}, []byte{3}, uint16(2), uint8(4), uint8(2), uint8(3), false, uint8(0))
	f.Fuzz(func(t *testing.T, grid, profile []byte, length uint16, n, metric, minLen uint8, refine bool, tol uint8) {
		if len(grid) == 0 || len(grid) > 32 || len(profile) == 0 {
			return
		}
		L := 1 + int(length)%500
		nVal := 1 + int(n)%64
		fracs := make([]float64, len(grid))
		for i, b := range grid {
			fracs[i] = float64(b) / 100
		}
		cfg := Config{
			Metric:    Metric(int(metric) % 3),
			Refine:    refine,
			Tolerance: float64(tol) / 255,
			MinLength: 1 + int(minLen)%8,
		}
		candidates := candidateLengths(fracs, L, cfg.MinLength)
		k := func(t int) int { return int(profile[t%len(profile)]) % (nVal + 1) }
		jitter := func(t int) float64 { return float64(profile[(t*7)%len(profile)]&3) * 4e-13 }
		checkSearch(t, candidates, L, cfg, accuracyScore(cfg.Metric, L, nVal, k, jitter))
	})
}
