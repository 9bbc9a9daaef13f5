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

	"github.com/goetsc/goetsc/internal/algos/checkpoint"
	"github.com/goetsc/goetsc/internal/core"
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
	cfg := c.Cfg.withDefaults()
	c.cfg = cfg
	// One pipeline per prefix. The filters and the v grid search consume
	// out-of-fold probabilities so that they see the same uncertainty a
	// test instance will produce.
	t, err := checkpoint.Train(train, cfg.S, cfg.CVFolds, cfg.Seed, func(pi int) weasel.Config {
		wcfg := cfg.Weasel
		wcfg.LogReg.Seed = cfg.Seed + int64(pi)
		return wcfg
	})
	if err != nil {
		return fmt.Errorf("teaser: %w", err)
	}
	c.numClasses, c.length, c.prefixes, c.pipelines = t.NumClasses, t.Length, t.Lengths, t.Models

	// One one-class filter per prefix, trained on the probability
	// features of the correctly classified out-of-fold predictions.
	c.filters = make([]*ocsvm.Model, len(c.prefixes))
	for pi, probs := range t.OOF {
		if cfg.DisableFilter {
			break
		}
		var correctFeatures [][]float64
		for i, y := range t.Labels {
			if stats.ArgMax(probs[i]) == y {
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

	// Grid-search v on the training harmonic mean.
	bestHM := -1.0
	c.v = cfg.VGrid[0]
	n := float64(len(t.Labels))
	for _, v := range cfg.VGrid {
		correct, earl := t.Score(func() checkpoint.Trigger { return c.newTrigger(v) })
		hm := metrics.HarmonicMean(float64(correct)/n, earl/n)
		if hm > bestHM {
			bestHM = hm
			c.v = v
		}
	}
	return nil
}

// accept applies the prefix's one-class SVM to the probability features.
func (c *Classifier) accept(pi int, probs []float64) bool {
	f := c.filters[pi]
	if f == nil {
		return true
	}
	return f.Accept(ocsvmFeatures(probs))
}

// trigger is TEASER's two-tier stopping rule for one instance: a
// prediction the prefix's one-class filter accepts extends the streak of
// its label (a rejected one resets it), and a streak of v commits.
type trigger struct {
	c           *Classifier
	v           int
	streak      int
	streakLabel int
}

func (c *Classifier) newTrigger(v int) *trigger { return &trigger{c: c, v: v, streakLabel: -1} }

// Stop implements checkpoint.Trigger.
func (t *trigger) Stop(pi, label int, probs []float64) bool {
	if !t.c.accept(pi, probs) {
		t.streak, t.streakLabel = 0, -1
		return false
	}
	if label == t.streakLabel {
		t.streak++
	} else {
		t.streak, t.streakLabel = 1, label
	}
	return t.streak >= t.v
}

// Classify implements core.EarlyClassifier: prefixes are consumed batch by
// batch through the two-tier pipeline; the final prefix bypasses the filter
// and consistency check, as in the original design.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	return checkpoint.Classify(c.prefixes, in.Length(), checkpoint.WeaselProba(c.pipelines, in.Values[0]), c.newTrigger(c.v), false)
}

var _ core.IncrementalClassifier = (*Classifier)(nil)

// Begin implements core.IncrementalClassifier: the same machine as
// Classify, fed by incremental checkpoint evaluators (see
// checkpoint.Begin), so each pipeline runs once, as the prefix comes to
// cover its checkpoint.
func (c *Classifier) Begin(in ts.Instance) core.Cursor {
	return checkpoint.Begin(c.pipelines, c.prefixes, c.length, in, c.newTrigger(c.v))
}

// ocsvmFeatures builds TEASER's outlier-detection features: the class
// probabilities plus the margin between the two largest.
func ocsvmFeatures(probs []float64) []float64 {
	out := make([]float64, len(probs)+1)
	copy(out, probs)
	best, second := stats.TopTwo(probs)
	out[len(probs)] = best - second
	return out
}
