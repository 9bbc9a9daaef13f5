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
	n := len(t.Labels)
	bestCost := math.Inf(1)
	for _, g1 := range cfg.GammaGrid {
		for _, g2 := range cfg.GammaGrid {
			for _, g3 := range cfg.GammaGrid {
				gamma := [3]float64{g1, g2, g3}
				correct := 0
				var earliness float64
				for i, y := range t.Labels {
					pi := c.stoppingPoint(gamma, func(p int) []float64 { return t.OOF[p][i] })
					if stats.ArgMax(t.OOF[pi][i]) == y {
						correct++
					}
					earliness += float64(c.prefixes[pi]) / float64(c.length)
				}
				acc := float64(correct) / float64(n)
				cost := cfg.Alpha*(1-acc) + (1-cfg.Alpha)*earliness/float64(n)
				if cost < bestCost {
					bestCost = cost
					c.gamma = gamma
				}
			}
		}
	}
	return nil
}

// stoppingPoint walks the checkpoints applying the rule and returns the
// index where the decision fires (the last checkpoint at the latest).
func (c *Classifier) stoppingPoint(gamma [3]float64, probsAt func(int) []float64) int {
	for pi := range c.prefixes {
		if pi == len(c.prefixes)-1 {
			return pi
		}
		probs := probsAt(pi)
		p1, p2 := topTwo(probs)
		tFrac := float64(c.prefixes[pi]) / float64(c.length)
		if gamma[0]*p1+gamma[1]*(p1-p2)+gamma[2]*tFrac >= 0 {
			return pi
		}
	}
	return len(c.prefixes) - 1
}

// Classify implements core.EarlyClassifier.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	s := in.Values[0]
	cache := make([][]float64, len(c.prefixes))
	probsAt := func(pi int) []float64 {
		if cache[pi] == nil {
			cache[pi] = c.models[pi].PredictProbaSeries(checkpoint.Prefix(s, c.prefixes[pi]))
		}
		return cache[pi]
	}
	pi := c.stoppingPoint(c.gamma, probsAt)
	consumed := c.prefixes[pi]
	if consumed > len(s) {
		consumed = len(s)
	}
	return stats.ArgMax(probsAt(pi)), consumed
}

func topTwo(probs []float64) (p1, p2 float64) {
	p1, p2 = -1, -1
	for _, p := range probs {
		if p > p1 {
			p2 = p1
			p1 = p
		} else if p > p2 {
			p2 = p
		}
	}
	if p2 < 0 {
		p2 = 0
	}
	return p1, p2
}
