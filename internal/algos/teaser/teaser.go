// Package teaser implements the Two-tier Early and Accurate Series
// classifiER of Schäfer & Leser (DMKD 2020): S WEASEL + logistic-regression
// pipelines are trained on overlapping prefixes; for each prefix a one-class
// SVM is trained on the probability features of correctly classified
// training instances and acts as an acceptance filter; a prediction is
// emitted once the same accepted label has been observed for v consecutive
// prefixes, with v ∈ {1..5} grid-searched on the training harmonic mean.
//
// As in the paper's evaluation (Section 6.1), the z-normalization of the
// original TEASER is left out — it is unrealistic in a streaming setting.
//
// Table 4 parameters: S = 20 for UCR datasets, S = 10 for the Biological
// and Maritime datasets.
package teaser

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/goetsc/goetsc/internal/metrics"
	"github.com/goetsc/goetsc/internal/ocsvm"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

// Config holds the TEASER parameters.
type Config struct {
	// S is the number of overlapping prefixes / pipelines. Default 20.
	S int
	// VGrid is the set of consistency-check candidates. Default {1..5}.
	VGrid []int
	// Nu is the one-class SVM's ν. Default 0.05.
	Nu float64
	// CVFolds controls the internal cross validation that produces the
	// probability features used to train the one-class filters and to
	// grid-search v. In-sample probabilities are overfit at uninformative
	// prefixes and would make both tiers accept immediately. Default 3.
	CVFolds int
	// DisableFilter removes the one-class SVM tier (every prediction is
	// accepted, only the consistency check remains). Used by the ablation
	// benchmarks to quantify the filter's contribution, which the paper
	// credits for TEASER's edge over plain S-WEASEL.
	DisableFilter bool
	// Weasel configures the base pipelines (no z-normalization, the
	// paper's variant).
	Weasel weasel.Config
	// Seed drives the base pipelines.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.S <= 0 {
		c.S = 20
	}
	if len(c.VGrid) == 0 {
		c.VGrid = []int{1, 2, 3, 4, 5}
	}
	if c.Nu <= 0 {
		c.Nu = 0.05
	}
	if c.CVFolds <= 0 {
		c.CVFolds = 3
	}
	return c
}

// Classifier is a fitted TEASER model implementing core.EarlyClassifier.
type Classifier struct {
	Cfg Config

	cfg        Config
	numClasses int
	length     int
	prefixes   []int
	pipelines  []*weasel.Model
	filters    []*ocsvm.Model // nil entries: no filter (accept everything)
	v          int
}

// New returns an untrained TEASER classifier.
func New(cfg Config) *Classifier { return &Classifier{Cfg: cfg} }

// Name implements core.EarlyClassifier.
func (c *Classifier) Name() string { return "TEASER" }

// V exposes the selected consistency parameter.
func (c *Classifier) V() int { return c.v }

// Fit implements core.EarlyClassifier; the input must be univariate.
func (c *Classifier) Fit(train *ts.Dataset) error {
	if train.NumVars() != 1 {
		return fmt.Errorf("teaser: univariate algorithm got %d variables (use the voting wrapper)", train.NumVars())
	}
	cfg := c.Cfg.withDefaults()
	c.cfg = cfg
	c.numClasses = train.NumClasses()
	if c.numClasses < 2 {
		return fmt.Errorf("teaser: need at least 2 classes")
	}
	c.length = train.MaxLength()
	c.prefixes = prefixLengths(c.length, cfg.S)

	n := train.Len()
	series := make([][]float64, n)
	labels := make([]int, n)
	for i, in := range train.Instances {
		series[i] = in.Values[0]
		labels[i] = in.Label
	}

	// Shared stratified fold assignment for out-of-fold probabilities.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	folds := cfg.CVFolds
	if folds > n {
		folds = n
	}
	if folds < 2 {
		return fmt.Errorf("teaser: need at least 2 training series")
	}
	assignment := foldAssignment(labels, c.numClasses, folds, rng)

	// Train one pipeline + one-class filter per prefix. The filters and
	// the v grid search consume out-of-fold probabilities so that they see
	// the same uncertainty a test instance will produce.
	c.pipelines = make([]*weasel.Model, len(c.prefixes))
	c.filters = make([]*ocsvm.Model, len(c.prefixes))
	trainProbs := make([][][]float64, len(c.prefixes)) // [prefix][instance]
	for pi, plen := range c.prefixes {
		truncated := make([][]float64, n)
		for i, s := range series {
			truncated[i] = prefixOf(s, plen)
		}
		wcfg := cfg.Weasel
		wcfg.LogReg.Seed = cfg.Seed + int64(pi)
		m := weasel.New(wcfg)
		if err := m.FitSeries(truncated, labels, c.numClasses); err != nil {
			return fmt.Errorf("teaser: prefix %d: %w", plen, err)
		}
		c.pipelines[pi] = m

		probs := make([][]float64, n)
		for f := 0; f < folds; f++ {
			var trX [][]float64
			var trY []int
			var teIdx []int
			for i := range series {
				if assignment[i] == f {
					teIdx = append(teIdx, i)
				} else {
					trX = append(trX, truncated[i])
					trY = append(trY, labels[i])
				}
			}
			if len(teIdx) == 0 {
				continue
			}
			fm := weasel.New(wcfg)
			if err := fm.FitSeries(trX, trY, c.numClasses); err != nil {
				return fmt.Errorf("teaser: prefix %d fold %d: %w", plen, f, err)
			}
			for _, i := range teIdx {
				probs[i] = fm.PredictProbaSeries(truncated[i])
			}
		}
		trainProbs[pi] = probs

		if !cfg.DisableFilter {
			var correctFeatures [][]float64
			for i := range truncated {
				if stats.ArgMax(probs[i]) == labels[i] {
					correctFeatures = append(correctFeatures, ocsvmFeatures(probs[i]))
				}
			}
			if len(correctFeatures) >= 2 {
				filter := ocsvm.New(ocsvm.Config{Nu: cfg.Nu})
				if err := filter.Fit(correctFeatures); err == nil {
					c.filters[pi] = filter
				}
			}
		}
	}

	// Grid-search v on the training harmonic mean.
	bestHM := -1.0
	c.v = cfg.VGrid[0]
	for _, v := range cfg.VGrid {
		correct := 0
		var earliness float64
		for i := 0; i < n; i++ {
			label, pi := c.simulate(trainProbs, i, v)
			if label == labels[i] {
				correct++
			}
			earliness += float64(c.prefixes[pi]) / float64(c.length)
		}
		acc := float64(correct) / float64(n)
		hm := metrics.HarmonicMean(acc, earliness/float64(n))
		if hm > bestHM {
			bestHM = hm
			c.v = v
		}
	}
	return nil
}

// simulate replays the two-tier decision over cached training probabilities
// for one instance and a candidate v, returning (label, prefix index).
func (c *Classifier) simulate(trainProbs [][][]float64, i, v int) (int, int) {
	streak, streakLabel := 0, -1
	for pi := range c.prefixes {
		p := trainProbs[pi][i]
		label := stats.ArgMax(p)
		if pi == len(c.prefixes)-1 {
			return label, pi
		}
		if c.accept(pi, p) {
			if label == streakLabel {
				streak++
			} else {
				streak, streakLabel = 1, label
			}
			if streak >= v {
				return label, pi
			}
		} else {
			streak, streakLabel = 0, -1
		}
	}
	last := len(c.prefixes) - 1
	return stats.ArgMax(trainProbs[last][i]), last
}

// accept applies the prefix's one-class SVM to the probability features.
func (c *Classifier) accept(pi int, probs []float64) bool {
	f := c.filters[pi]
	if f == nil {
		return true
	}
	return f.Accept(ocsvmFeatures(probs))
}

// Classify implements core.EarlyClassifier: prefixes are consumed batch by
// batch through the two-tier pipeline; the final prefix bypasses the filter
// and consistency check, as in the original design.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	s := in.Values[0]
	streak, streakLabel := 0, -1
	lastLabel := 0
	for pi, plen := range c.prefixes {
		if plen > len(s) && pi > 0 {
			return lastLabel, len(s)
		}
		p := c.pipelines[pi].PredictProbaSeries(prefixOf(s, plen))
		label := stats.ArgMax(p)
		lastLabel = label
		consumed := plen
		if consumed > len(s) {
			consumed = len(s)
		}
		if pi == len(c.prefixes)-1 {
			return label, consumed
		}
		if c.accept(pi, p) {
			if label == streakLabel {
				streak++
			} else {
				streak, streakLabel = 1, label
			}
			if streak >= c.v {
				return label, consumed
			}
		} else {
			streak, streakLabel = 0, -1
		}
	}
	return lastLabel, len(s)
}

// ocsvmFeatures builds TEASER's outlier-detection features: the class
// probabilities plus the margin between the two largest.
func ocsvmFeatures(probs []float64) []float64 {
	out := make([]float64, len(probs)+1)
	copy(out, probs)
	best, second := -1.0, -1.0
	for _, p := range probs {
		if p > best {
			second = best
			best = p
		} else if p > second {
			second = p
		}
	}
	if second < 0 {
		second = 0
	}
	out[len(probs)] = best - second
	return out
}

// prefixLengths returns the S overlapping prefix lengths ceil(i·L/S), each
// at least 2.
func prefixLengths(length, s int) []int {
	if s > length {
		s = length
	}
	var out []int
	seen := map[int]bool{}
	for i := 1; i <= s; i++ {
		t := int(math.Ceil(float64(i*length) / float64(s)))
		if t < 2 {
			t = 2
		}
		if t > length {
			t = length
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func prefixOf(s []float64, n int) []float64 {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func foldAssignment(labels []int, numClasses, folds int, rng *rand.Rand) []int {
	byClass := make([][]int, numClasses)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	out := make([]int, len(labels))
	for _, idxs := range byClass {
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for pos, idx := range idxs {
			out[idx] = pos % folds
		}
	}
	return out
}
