package strut

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/minirocket"
	"github.com/goetsc/goetsc/internal/mlstm"
	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

// centroid is a tiny FullTSC for unit tests: nearest class-mean over the
// flattened (truncated) instance.
type centroid struct {
	means  [][]float64
	counts []int
}

func (c *centroid) Fit(X [][][]float64, y []int, numClasses int) error {
	dim := 0
	for _, inst := range X {
		if l := len(inst[0]) * len(inst); l > dim {
			dim = l
		}
	}
	c.means = make([][]float64, numClasses)
	c.counts = make([]int, numClasses)
	for i := range c.means {
		c.means[i] = make([]float64, dim)
	}
	for i, inst := range X {
		flat := flatten(inst, dim)
		for j, v := range flat {
			c.means[y[i]][j] += v
		}
		c.counts[y[i]]++
	}
	for cls := range c.means {
		if c.counts[cls] == 0 {
			continue
		}
		for j := range c.means[cls] {
			c.means[cls][j] /= float64(c.counts[cls])
		}
	}
	return nil
}

func (c *centroid) PredictProba(inst [][]float64) []float64 {
	flat := flatten(inst, len(c.means[0]))
	probs := make([]float64, len(c.means))
	var sum float64
	for cls, mean := range c.means {
		var d float64
		for j := range flat {
			diff := flat[j] - mean[j]
			d += diff * diff
		}
		probs[cls] = math.Exp(-d / float64(len(flat)))
		sum += probs[cls]
	}
	for cls := range probs {
		probs[cls] /= sum
	}
	return probs
}

func flatten(inst [][]float64, dim int) []float64 {
	out := make([]float64, dim)
	k := 0
	for _, row := range inst {
		for _, v := range row {
			if k < dim {
				out[k] = v
			}
			k++
		}
	}
	return out
}

func divergeDataset(rng *rand.Rand, n, length, divergeAt int) *ts.Dataset {
	d := &ts.Dataset{Name: "diverge"}
	for i := 0; i < n; i++ {
		c := i % 2
		row := make([]float64, length)
		for t := range row {
			if t < divergeAt {
				row[t] = rng.NormFloat64() * 0.3
			} else {
				row[t] = float64(c)*4 + rng.NormFloat64()*0.3
			}
		}
		d.Instances = append(d.Instances, ts.Instance{Values: [][]float64{row}, Label: c})
	}
	return d
}

func centroidVariant() []Variant {
	return []Variant{{Label: "centroid", New: func() FullTSC { return &centroid{} }}}
}

func TestFindsTruncationAfterDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := divergeDataset(rng, 80, 40, 10)
	algo := New(Config{Name: "S-TEST", Variants: centroidVariant(), Seed: 1})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	// The best harmonic mean lies just after the divergence point: early
	// enough to save time, late enough to be accurate.
	tp := algo.TruncationPoint()
	if tp < 10 || tp > 30 {
		t.Fatalf("truncation point = %d, want in (10, 30): evals %v", tp, algo.Evaluations())
	}
	test := divergeDataset(rng, 40, 40, 10)
	correct := 0
	for _, in := range test.Instances {
		label, consumed := algo.Classify(in)
		if label == in.Label {
			correct++
		}
		if consumed != tp {
			t.Fatalf("consumed = %d, want fixed %d", consumed, tp)
		}
	}
	if correct < 36 {
		t.Fatalf("accuracy = %d/40", correct)
	}
}

func TestAccuracyMetricPrefersMoreData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := divergeDataset(rng, 80, 40, 20)
	hm := New(Config{Variants: centroidVariant(), Metric: HarmonicMean, Seed: 2})
	acc := New(Config{Variants: centroidVariant(), Metric: Accuracy, Seed: 2})
	if err := hm.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := acc.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc.TruncationPoint() < hm.TruncationPoint() {
		t.Fatalf("accuracy metric picked earlier point (%d) than harmonic mean (%d)",
			acc.TruncationPoint(), hm.TruncationPoint())
	}
}

func TestRefinementLowersOrKeepsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := divergeDataset(rng, 80, 64, 8)
	coarse := New(Config{Variants: centroidVariant(), Seed: 3})
	fine := New(Config{Variants: centroidVariant(), Refine: true, Seed: 3})
	if err := coarse.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := fine.Fit(train); err != nil {
		t.Fatal(err)
	}
	if fine.TruncationPoint() > coarse.TruncationPoint() {
		t.Fatalf("refinement raised the truncation point: %d > %d",
			fine.TruncationPoint(), coarse.TruncationPoint())
	}
	if len(fine.Evaluations()) <= len(coarse.Evaluations()) {
		t.Fatal("refinement did not add evaluations")
	}
}

func TestVariantSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := divergeDataset(rng, 60, 20, 4)
	// A broken variant that always predicts class 0 must lose to centroid.
	broken := Variant{Label: "broken", New: func() FullTSC { return &constantModel{} }}
	algo := New(Config{
		Variants: []Variant{broken, {Label: "centroid", New: func() FullTSC { return &centroid{} }}},
		Seed:     4,
	})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if algo.ChosenVariant() != "centroid" {
		t.Fatalf("chose %q over the working variant", algo.ChosenVariant())
	}
}

type constantModel struct{ n int }

func (c *constantModel) Fit(X [][][]float64, y []int, numClasses int) error {
	c.n = numClasses
	return nil
}

func (c *constantModel) PredictProba(inst [][]float64) []float64 {
	p := make([]float64, c.n)
	p[0] = 1
	return p
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := divergeDataset(rng, 20, 10, 2)
	if err := New(Config{}).Fit(train); err == nil {
		t.Fatal("no variants accepted")
	}
	single := &ts.Dataset{Name: "one", Instances: []ts.Instance{
		{Values: [][]float64{{1, 2}}, Label: 0},
		{Values: [][]float64{{1, 3}}, Label: 0},
	}}
	if err := New(Config{Variants: centroidVariant()}).Fit(single); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestShortInstanceClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train := divergeDataset(rng, 60, 30, 5)
	algo := New(Config{Variants: centroidVariant(), Seed: 6})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	short := ts.Instance{Values: [][]float64{{0.1, 4.2}}, Label: 1}
	_, consumed := algo.Classify(short)
	if consumed > 2 {
		t.Fatalf("consumed = %d on a 2-point instance", consumed)
	}
}

// Smoke tests for the three prebuilt variants on a small dataset.

func TestSMiniVariantSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := divergeDataset(rng, 50, 24, 4)
	algo := NewSMini(minirocket.Config{NumFeatures: 336}, Options{Seed: 7})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if algo.Name() != "S-MINI" {
		t.Fatalf("name = %q", algo.Name())
	}
	correct := 0
	test := divergeDataset(rng, 20, 24, 4)
	for _, in := range test.Instances {
		if label, _ := algo.Classify(in); label == in.Label {
			correct++
		}
	}
	if correct < 16 {
		t.Fatalf("S-MINI accuracy = %d/20", correct)
	}
}

func TestSWeaselVariantSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := divergeDataset(rng, 50, 24, 4)
	algo := NewSWeasel(weasel.Config{MaxWindows: 3}, Options{Seed: 8})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if algo.Name() != "S-WEASEL" {
		t.Fatalf("name = %q", algo.Name())
	}
	if !algo.Multivariate() {
		t.Fatal("STRUT must be multivariate-capable")
	}
}

func TestSMLSTMVariantSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := divergeDataset(rng, 30, 16, 3)
	algo := NewSMLSTM(mlstm.Config{Filters: [3]int{4, 8, 4}, Epochs: 3}, []int{4}, Options{Seed: 9})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	if algo.Name() != "S-MLSTM" {
		t.Fatalf("name = %q", algo.Name())
	}
	if algo.ChosenVariant() != "mlstm-4cells" {
		t.Fatalf("variant = %q", algo.ChosenVariant())
	}
}

// countingBase records the length and size of every training set it is
// fitted on.
type countingBase struct {
	centroid
	label string
	fits  *[]string
}

func (c *countingBase) Fit(X [][][]float64, y []int, numClasses int) error {
	*c.fits = append(*c.fits, fmt.Sprintf("%s len %d n %d", c.label, len(X[0][0]), len(X)))
	return c.centroid.Fit(X, y, numClasses)
}

// TestOneFitPerVariantAndLength checks that with several variants every
// (variant, length) pair of the search is fitted once, and only the final
// retrain on the whole set repeats a length.
func TestOneFitPerVariantAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := divergeDataset(rng, 40, 30, 6)
	var fits []string
	variant := func(label string) Variant {
		return Variant{Label: label, New: func() FullTSC { return &countingBase{label: label, fits: &fits} }}
	}
	algo := New(Config{Variants: []Variant{variant("a"), variant("b")}, Seed: 5})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	search := fits[:len(fits)-1]
	seen := map[string]bool{}
	for _, f := range search {
		if seen[f] {
			t.Fatalf("%q fitted twice in the search: %v", f, fits)
		}
		seen[f] = true
	}
	// Two selection fits, then the grid lengths 3, 6 and 12. The series
	// diverge at 6, so length 12 scores about HarmonicMean(1, 0.4) = 0.75;
	// a perfect accuracy at 18 would score only HarmonicMean(1, 0.6) ≈
	// 0.57, so the walk stops there and 18, 24 and 30 are never fitted.
	if len(search) != 2+3 {
		t.Fatalf("%d search fits, want 5: %v", len(search), fits)
	}
	if evals := algo.Evaluations(); len(evals) != 3 || evals[2].Length != 12 {
		t.Fatalf("evaluations %v, want three ending at length 12", evals)
	}
}
