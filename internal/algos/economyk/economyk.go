// Package economyk implements the ECONOMY-K early classifier of Dachraoui
// et al. (ECML 2013 / Machine Learning 2021): training series are grouped
// with k-means, per-checkpoint base classifiers (gradient-boosted trees,
// standing in for the paper's XGBoost) provide cluster-conditional
// confusion statistics, and at test time an expected-cost function over
// future checkpoints decides whether to predict now (τ = 0) or wait.
//
// Table 4 parameters: k ∈ {1, 2, 3} (selected on training cost), λ = 100
// (cluster-membership sharpness), time cost 0.001 per time point.
package economyk

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/goetsc/goetsc/internal/algos/checkpoint"
	"github.com/goetsc/goetsc/internal/gbdt"
	"github.com/goetsc/goetsc/internal/kmeans"
	"github.com/goetsc/goetsc/internal/ml"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// Config holds ECONOMY-K's hyper-parameters (zero values = Table 4
// defaults).
type Config struct {
	// Ks are the candidate cluster counts; the one with the lowest
	// simulated training cost wins. Default {1, 2, 3}.
	Ks []int
	// Lambda is the cluster-membership softmax sharpness. Default 100.
	Lambda float64
	// TimeCost is the cost per consumed time point. Default 0.001.
	TimeCost float64
	// Checkpoints is the number of decision points along the series;
	// base classifiers are trained at each. Default 20 (clamped to L).
	Checkpoints int
	// CVFolds controls the internal cross validation that estimates the
	// per-checkpoint confusion statistics; in-sample predictions would be
	// overfit and make the cost function commit immediately. Default 3.
	CVFolds int
	// Base configures the boosted-tree base classifiers.
	Base gbdt.Config
	// Seed drives clustering and boosting determinism.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 2, 3}
	}
	if c.Lambda <= 0 {
		c.Lambda = 100
	}
	if c.TimeCost <= 0 {
		c.TimeCost = 0.001
	}
	if c.Checkpoints <= 0 {
		c.Checkpoints = 20
	}
	if c.Base.Rounds == 0 {
		c.Base.Rounds = 25
	}
	if c.CVFolds <= 0 {
		c.CVFolds = 3
	}
	return c
}

// Classifier is a fitted ECONOMY-K model implementing core.EarlyClassifier.
type Classifier struct {
	Cfg Config

	cfg         Config
	numClasses  int
	length      int
	checkpoints []int // ascending prefix lengths
	classifiers []ml.Classifier
	clusters    *kmeans.Model
	// conf[ci][k][y][yhat]: P(predict yhat | true y, cluster k, checkpoint ci)
	conf [][][][]float64
	// prior[k][y]: P(y | cluster k)
	prior [][]float64
}

// New returns an untrained ECONOMY-K classifier.
func New(cfg Config) *Classifier { return &Classifier{Cfg: cfg} }

// Name implements core.EarlyClassifier.
func (c *Classifier) Name() string { return "ECO-K" }

// Fit implements core.EarlyClassifier; the input must be univariate.
func (c *Classifier) Fit(train *ts.Dataset) error {
	if train.NumVars() != 1 {
		return fmt.Errorf("economy-k: univariate algorithm got %d variables (use the voting wrapper)", train.NumVars())
	}
	cfg := c.Cfg.withDefaults()
	c.cfg = cfg
	c.numClasses = train.NumClasses()
	c.length = train.MaxLength()
	if c.numClasses < 2 {
		return fmt.Errorf("economy-k: need at least 2 classes")
	}
	c.checkpoints = checkpoint.Lengths(c.length, cfg.Checkpoints, 1)

	series := make([][]float64, train.Len())
	labels := make([]int, train.Len())
	for i, in := range train.Instances {
		series[i] = padTo(in.Values[0], c.length)
		labels[i] = in.Label
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// One base classifier per checkpoint, trained on the raw prefix. The
	// confusion statistics come from out-of-fold cross-validated
	// predictions — in-sample predictions would be overfit and collapse
	// the waiting behaviour.
	c.classifiers = make([]ml.Classifier, len(c.checkpoints))
	trainPreds := make([][]int, len(c.checkpoints)) // [checkpoint][instance]
	for ci, t := range c.checkpoints {
		X := make([][]float64, len(series))
		for i, s := range series {
			X[i] = s[:t]
		}
		seed := cfg.Seed + int64(ci)
		factory := func() ml.Classifier {
			b := gbdt.New(cfg.Base)
			b.Cfg.Seed = seed
			return b
		}
		base := factory()
		if err := base.Fit(X, labels, c.numClasses); err != nil {
			return fmt.Errorf("economy-k: checkpoint %d: %w", t, err)
		}
		c.classifiers[ci] = base
		probas, err := ml.CrossValProba(factory, X, labels, c.numClasses, cfg.CVFolds, rng)
		if err != nil {
			return fmt.Errorf("economy-k: checkpoint %d cross validation: %w", t, err)
		}
		preds := make([]int, len(series))
		for i, p := range probas {
			preds[i] = stats.ArgMax(p)
		}
		trainPreds[ci] = preds
	}

	// Pick K by simulated training cost.
	bestCost := math.Inf(1)
	for _, k := range cfg.Ks {
		if k < 1 || k > len(series) {
			continue
		}
		model, err := kmeans.Fit(series, kmeans.Config{K: k}, rng)
		if err != nil {
			continue
		}
		conf, prior := c.buildStats(model, series, labels, trainPreds)
		cost := c.simulateCost(model, conf, prior, series, labels)
		if cost < bestCost {
			bestCost = cost
			c.clusters = model
			c.conf = conf
			c.prior = prior
		}
	}
	if c.clusters == nil {
		return fmt.Errorf("economy-k: no valid cluster count in %v", cfg.Ks)
	}
	return nil
}

// buildStats estimates per-cluster confusion matrices and class priors from
// the training predictions (Laplace-smoothed).
func (c *Classifier) buildStats(model *kmeans.Model, series [][]float64, labels []int, trainPreds [][]int) (conf [][][][]float64, prior [][]float64) {
	k := len(model.Centroids)
	assign := make([]int, len(series))
	for i, s := range series {
		assign[i] = model.Assign(s)
	}
	prior = make([][]float64, k)
	for g := range prior {
		prior[g] = make([]float64, c.numClasses)
		for y := range prior[g] {
			prior[g][y] = 1 // Laplace
		}
	}
	for i := range series {
		prior[assign[i]][labels[i]]++
	}
	for g := range prior {
		var sum float64
		for _, v := range prior[g] {
			sum += v
		}
		for y := range prior[g] {
			prior[g][y] /= sum
		}
	}
	conf = make([][][][]float64, len(c.checkpoints))
	for ci := range c.checkpoints {
		conf[ci] = make([][][]float64, k)
		for g := 0; g < k; g++ {
			conf[ci][g] = make([][]float64, c.numClasses)
			for y := 0; y < c.numClasses; y++ {
				conf[ci][g][y] = make([]float64, c.numClasses)
				for yh := range conf[ci][g][y] {
					conf[ci][g][y][yh] = 1 // Laplace
				}
			}
		}
		for i := range series {
			conf[ci][assign[i]][labels[i]][trainPreds[ci][i]]++
		}
		for g := 0; g < k; g++ {
			for y := 0; y < c.numClasses; y++ {
				var sum float64
				for _, v := range conf[ci][g][y] {
					sum += v
				}
				for yh := range conf[ci][g][y] {
					conf[ci][g][y][yh] /= sum
				}
			}
		}
	}
	return conf, prior
}

// expectedCost computes f_τ: the expected misclassification cost at
// checkpoint index ci given cluster memberships, plus the time cost of
// waiting until that checkpoint.
func (c *Classifier) expectedCost(memberships []float64, conf [][][][]float64, prior [][]float64, ci int) float64 {
	var cost float64
	for g, pg := range memberships {
		if pg < 1e-12 {
			continue
		}
		for y := 0; y < c.numClasses; y++ {
			py := prior[g][y]
			// P(misclassify | y, g, t) = 1 - P(predict y | y, g, t).
			cost += pg * py * (1 - conf[ci][g][y][y])
		}
	}
	return cost + c.cfg.TimeCost*float64(c.checkpoints[ci])
}

// simulateCost replays the decision rule over the training set and returns
// the average realized cost (misclassification + time), used to select K.
func (c *Classifier) simulateCost(model *kmeans.Model, conf [][][][]float64, prior [][]float64, series [][]float64, labels []int) float64 {
	var total float64
	for i, s := range series {
		label, consumed := c.classify(s, len(s), model, conf, prior)
		if label != labels[i] {
			total += 1
		}
		total += c.cfg.TimeCost * float64(consumed)
	}
	return total / float64(len(series))
}

// classify runs the checkpoint machine, with the non-myopic trigger on
// the given cluster statistics, over the first p points of s, a series
// padded to the training length: checkpoint i's classifier scores s[:n],
// so a checkpoint past the end of a short series sees the padding.
func (c *Classifier) classify(s []float64, p int, clusters *kmeans.Model, conf [][][][]float64, prior [][]float64) (label, consumed int) {
	proba := func(i, n int) []float64 { return c.classifiers[i].PredictProba(s[:n]) }
	trig := &trigger{c: c, clusters: clusters, conf: conf, prior: prior, s: s}
	return checkpoint.Classify(c.checkpoints, p, proba, trig, true)
}

// trigger is the non-myopic rule for one padded series s: stop at a
// checkpoint unless, for the cluster memberships of the prefix seen
// there, some later checkpoint has a lower expected cost.
type trigger struct {
	c        *Classifier
	clusters *kmeans.Model
	conf     [][][][]float64
	prior    [][]float64
	s        []float64
}

// Stop implements checkpoint.Trigger.
func (t *trigger) Stop(i, _ int, _ []float64) bool {
	memberships := t.clusters.Memberships(t.s[:t.c.checkpoints[i]], t.c.cfg.Lambda)
	now := t.c.expectedCost(memberships, t.conf, t.prior, i)
	for future := i + 1; future < len(t.c.checkpoints); future++ {
		if t.c.expectedCost(memberships, t.conf, t.prior, future) < now {
			return false
		}
	}
	return true
}

// Classify implements core.EarlyClassifier.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	return c.classify(padTo(in.Values[0], c.length), in.Length(), c.clusters, c.conf, c.prior)
}

// padTo right-pads s with its last value to length n (no-op when long
// enough).
func padTo(s []float64, n int) []float64 {
	if len(s) >= n {
		return s
	}
	out := make([]float64, n)
	copy(out, s)
	last := 0.0
	if len(s) > 0 {
		last = s[len(s)-1]
	}
	for i := len(s); i < n; i++ {
		out[i] = last
	}
	return out
}

var _ interface {
	Name() string
	Fit(*ts.Dataset) error
	Classify(ts.Instance) (int, int)
} = (*Classifier)(nil)
