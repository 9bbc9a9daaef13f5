// Package srule implements a stopping-rule early classifier in the style
// of Mori et al. (DMKD 2017), the approach the paper cites as [28] and
// lists among the methods to add to the framework. Probabilistic
// classifiers are trained at N checkpoints; at test time the decision to
// stop at checkpoint t is taken by a learned linear rule over the
// posterior evidence:
//
//	stop ⇔ γ1·p1 + γ2·(p1 − p2) + γ3·(t/L) ≥ 0
//
// where p1 and p2 are the two largest class posteriors. The coefficients
// are grid-searched on out-of-fold training posteriors to minimize the
// cost CF = α·(1 − accuracy) + (1 − α)·earliness, the same trade-off
// objective ECEC uses.
package srule

import (
	"fmt"
	"math"

	"github.com/goetsc/goetsc/internal/algos/checkpoint"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

// Config holds the stopping-rule parameters.
type Config struct {
	// Checkpoints is the number of prefix classifiers. Default 20.
	Checkpoints int
	// Alpha weighs accuracy against earliness in the rule-selection cost.
	// Default 0.8.
	Alpha float64
	// GammaGrid is the candidate coefficient set for each γ; the rule is
	// searched over its cube. Default {-1, -0.5, 0, 0.5, 1}.
	GammaGrid []float64
	// CVFolds is the internal fold count for out-of-fold posteriors.
	// Default 3.
	CVFolds int
	// Weasel configures the checkpoint classifiers.
	Weasel weasel.Config
	// Seed drives fold assignment.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Checkpoints <= 0 {
		c.Checkpoints = 20
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.8
	}
	if len(c.GammaGrid) == 0 {
		c.GammaGrid = []float64{-1, -0.5, 0, 0.5, 1}
	}
	if c.CVFolds <= 0 {
		c.CVFolds = 3
	}
	return c
}

// Classifier is a fitted stopping-rule model implementing
// core.EarlyClassifier.
type Classifier struct {
	Cfg Config

	cfg        Config
	numClasses int
	length     int
	prefixes   []int
	models     []*weasel.Model
	gamma      [3]float64
}

// New returns an untrained stopping-rule classifier.
func New(cfg Config) *Classifier { return &Classifier{Cfg: cfg} }

// Name implements core.EarlyClassifier.
func (c *Classifier) Name() string { return "SR" }

// Gamma exposes the learned rule coefficients.
func (c *Classifier) Gamma() [3]float64 { return c.gamma }

// Fit implements core.EarlyClassifier; the input must be univariate.
func (c *Classifier) Fit(train *ts.Dataset) error {
	cfg := c.Cfg.withDefaults()
	c.cfg = cfg
	// Full-train checkpoint models + out-of-fold posteriors.
	t, err := checkpoint.Train(train, cfg.Checkpoints, cfg.CVFolds, cfg.Seed, func(int) weasel.Config { return cfg.Weasel })
	if err != nil {
		return fmt.Errorf("srule: %w", err)
	}
	c.numClasses, c.length, c.prefixes, c.models = t.NumClasses, t.Length, t.Lengths, t.Models

	// Grid-search the rule coefficients on the out-of-fold posteriors.
	n := float64(len(t.Labels))
	bestCost := math.Inf(1)
	for _, g1 := range cfg.GammaGrid {
		for _, g2 := range cfg.GammaGrid {
			for _, g3 := range cfg.GammaGrid {
				r := &rule{c: c, gamma: [3]float64{g1, g2, g3}}
				correct, earliness := t.Score(func() checkpoint.Trigger { return r })
				acc := float64(correct) / n
				cost := cfg.Alpha*(1-acc) + (1-cfg.Alpha)*earliness/n
				if cost < bestCost {
					bestCost = cost
					c.gamma = r.gamma
				}
			}
		}
	}
	return nil
}

// rule is the stopping rule with coefficients gamma. It keeps no state,
// so one rule serves every instance.
type rule struct {
	c     *Classifier
	gamma [3]float64
}

// Stop implements checkpoint.Trigger.
func (r *rule) Stop(i, _ int, probs []float64) bool {
	p1, p2 := stats.TopTwo(probs)
	tFrac := float64(r.c.prefixes[i]) / float64(r.c.length)
	return r.gamma[0]*p1+r.gamma[1]*(p1-p2)+r.gamma[2]*tFrac >= 0
}

// Classify implements core.EarlyClassifier. An instance shorter than the
// last checkpoint is not cut short: each checkpoint past its end scores
// the whole instance, until the rule or the last checkpoint stops.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	return checkpoint.Classify(c.prefixes, in.Length(), checkpoint.WeaselProba(c.models, in.Values[0]), &rule{c: c, gamma: c.gamma}, true)
}
