// Package ecec implements the Effective Confidence-based Early
// Classification algorithm of Lv, Hu, Li & Li (IEEE Access 2019): N WEASEL
// classifiers are trained on overlapping prefixes; internal cross
// validation estimates each classifier's reliability p_i(y | ŷ); the
// confidence of predicting ŷ after t prefixes is
// C_t = 1 − Π_{i ≤ t} (1 − p_i(ŷ | ŷ_i)); and the acceptance threshold θ
// is swept over candidate values to minimize the cost
// CF(θ) = α·(1 − accuracy) + (1 − α)·earliness on the training set.
//
// Table 4 parameters: N = 20 prefixes, α = 0.8.
package ecec

import (
	"fmt"
	"math"
	"sort"

	"github.com/goetsc/goetsc/internal/algos/checkpoint"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

// Config holds the ECEC parameters (zero values = Table 4 defaults).
type Config struct {
	// N is the number of overlapping prefixes / base classifiers.
	// Default 20.
	N int
	// Alpha weighs accuracy against earliness in the threshold cost.
	// Default 0.8.
	Alpha float64
	// CVFolds is the internal cross-validation fold count used to
	// estimate reliabilities. Default 5.
	CVFolds int
	// MaxThresholdCandidates caps the θ sweep (evenly sampled from the
	// sorted candidate list). Default 60.
	MaxThresholdCandidates int
	// Weasel configures the base classifiers.
	Weasel weasel.Config
	// Seed drives fold assignment.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 20
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.8
	}
	if c.CVFolds <= 0 {
		c.CVFolds = 5
	}
	if c.MaxThresholdCandidates <= 0 {
		c.MaxThresholdCandidates = 60
	}
	return c
}

// Classifier is a fitted ECEC model implementing core.EarlyClassifier.
type Classifier struct {
	Cfg Config

	cfg        Config
	numClasses int
	length     int
	prefixes   []int
	models     []*weasel.Model
	// reliability[i][yhat][y] = P(true = y | classifier i predicted yhat)
	reliability [][][]float64
	theta       float64
}

// New returns an untrained ECEC classifier.
func New(cfg Config) *Classifier { return &Classifier{Cfg: cfg} }

// Name implements core.EarlyClassifier.
func (c *Classifier) Name() string { return "ECEC" }

// Fit implements core.EarlyClassifier; the input must be univariate.
func (c *Classifier) Fit(train *ts.Dataset) error {
	cfg := c.Cfg.withDefaults()
	c.cfg = cfg
	t, err := checkpoint.Train(train, cfg.N, cfg.CVFolds, cfg.Seed, func(int) weasel.Config { return cfg.Weasel })
	if err != nil {
		return fmt.Errorf("ecec: %w", err)
	}
	c.numClasses, c.length, c.prefixes, c.models = t.NumClasses, t.Length, t.Lengths, t.Models

	// Out-of-fold predictions per prefix: [prefix][instance].
	cvPreds := make([][]int, len(c.prefixes))
	for pi, probs := range t.OOF {
		cvPreds[pi] = make([]int, len(probs))
		for i, p := range probs {
			cvPreds[pi][i] = stats.ArgMax(p)
		}
	}

	// Reliability matrices p_i(y | ŷ) with Laplace smoothing.
	c.reliability = make([][][]float64, len(c.prefixes))
	for pi := range c.prefixes {
		rel := make([][]float64, c.numClasses)
		for yh := range rel {
			rel[yh] = make([]float64, c.numClasses)
			for y := range rel[yh] {
				rel[yh][y] = 1 // Laplace
			}
		}
		for i, y := range t.Labels {
			rel[cvPreds[pi][i]][y]++
		}
		for yh := range rel {
			var sum float64
			for _, v := range rel[yh] {
				sum += v
			}
			for y := range rel[yh] {
				rel[yh][y] /= sum
			}
		}
		c.reliability[pi] = rel
	}

	// Candidate thresholds: confidences observed on the training sequences.
	var candidates []float64
	for i := range t.Labels {
		seq := make([]int, 0, len(c.prefixes))
		for pi := range c.prefixes {
			seq = append(seq, cvPreds[pi][i])
			candidates = append(candidates, c.confidence(seq))
		}
	}
	sort.Float64s(candidates)
	candidates = midpoints(dedup(candidates))
	if len(candidates) > cfg.MaxThresholdCandidates {
		step := float64(len(candidates)) / float64(cfg.MaxThresholdCandidates)
		var sampled []float64
		for i := 0; i < cfg.MaxThresholdCandidates; i++ {
			sampled = append(sampled, candidates[int(float64(i)*step)])
		}
		candidates = sampled
	}
	if len(candidates) == 0 {
		candidates = []float64{0.5}
	}

	// Sweep θ minimizing CF(θ) = α(1-acc) + (1-α)·earliness on the
	// cross-validated training decisions.
	bestCost := math.Inf(1)
	n := float64(len(t.Labels))
	for _, theta := range candidates {
		correct, earl := t.Score(func() checkpoint.Trigger { return c.newTrigger(theta) })
		cost := cfg.Alpha*(1-float64(correct)/n) + (1-cfg.Alpha)*(earl/n)
		if cost < bestCost {
			bestCost = cost
			c.theta = theta
		}
	}
	return nil
}

// confidence computes C = 1 − Π_{i} (1 − p_i(ŷ_t | ŷ_i)) for the prediction
// sequence seq, whose last element is the current prediction ŷ_t.
func (c *Classifier) confidence(seq []int) float64 {
	final := seq[len(seq)-1]
	prod := 1.0
	for i, yh := range seq {
		prod *= 1 - c.reliability[i][yh][final]
	}
	return 1 - prod
}

// Theta exposes the learned confidence threshold.
func (c *Classifier) Theta() float64 { return c.theta }

// Prefixes exposes the prefix lengths.
func (c *Classifier) Prefixes() []int { return append([]int(nil), c.prefixes...) }

// trigger is ECEC's stopping rule for one instance: commit once the
// confidence of the prediction sequence so far reaches θ.
type trigger struct {
	c     *Classifier
	theta float64
	seq   []int
}

func (c *Classifier) newTrigger(theta float64) *trigger {
	return &trigger{c: c, theta: theta, seq: make([]int, 0, len(c.prefixes))}
}

// Stop implements checkpoint.Trigger.
func (t *trigger) Stop(_, label int, _ []float64) bool {
	t.seq = append(t.seq, label)
	return t.c.confidence(t.seq) >= t.theta
}

// Classify implements core.EarlyClassifier: prefixes are consumed batch by
// batch; the first prediction whose confidence reaches θ is emitted.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	return checkpoint.Classify(c.prefixes, in.Length(), checkpoint.WeaselProba(c.models, in.Values[0]), c.newTrigger(c.theta), false)
}

var _ core.IncrementalClassifier = (*Classifier)(nil)

// Begin implements core.IncrementalClassifier: the same machine as
// Classify, fed by incremental checkpoint evaluators (see
// checkpoint.Begin), so each checkpoint's prediction joins the sequence
// once, as the prefix comes to cover it.
func (c *Classifier) Begin(in ts.Instance) core.Cursor {
	return checkpoint.Begin(c.models, c.prefixes, c.length, in, c.newTrigger(c.theta))
}

func dedup(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func midpoints(sorted []float64) []float64 {
	if len(sorted) < 2 {
		return sorted
	}
	out := make([]float64, 0, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		out = append(out, (sorted[i-1]+sorted[i])/2)
	}
	return out
}
