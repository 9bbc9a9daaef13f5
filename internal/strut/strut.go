// Package strut implements the paper's proposed baseline: Selective
// TRUncation of Time-series (STRUT, Section 4). A full time-series
// classification algorithm is trained repeatedly on gradually truncated
// prefixes of the training data; the prefix length with the best validation
// score (accuracy, macro-F1 or the harmonic mean of accuracy and earliness)
// becomes the fixed decision point at test time. A coarse truncation grid
// plus an iterative binary-search refinement keeps the number of training
// iterations low — the "faster approximation variant" evaluated in the
// paper — and the grid walk stops at the first point whose best reachable
// score cannot beat the best point so far. The three paper variants
// S-MINI, S-WEASEL and S-MLSTM wrap MiniROCKET, WEASEL+MUSE and MLSTM-FCN
// respectively.
package strut

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/goetsc/goetsc/internal/metrics"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// FullTSC is the contract a wrapped full time-series classifier must
// satisfy; WEASEL(+MUSE), MiniROCKET and MLSTM-FCN all do.
type FullTSC interface {
	Fit(instances [][][]float64, labels []int, numClasses int) error
	PredictProba(instance [][]float64) []float64
}

// Metric selects what STRUT optimizes when choosing the truncation point.
type Metric int

// Supported optimization targets (Section 4: "a user-defined metric").
const (
	// HarmonicMean of accuracy and (1 - earliness); the default, and the
	// paper's headline score.
	HarmonicMean Metric = iota
	// Accuracy alone (always prefers more data; ties break early).
	Accuracy
	// MacroF1 alone.
	MacroF1
)

// Variant is one candidate base configuration (e.g. an LSTM cell count in
// S-MLSTM's {8, 64, 128} grid).
type Variant struct {
	Label string
	New   func() FullTSC
}

// Config controls the truncation search.
type Config struct {
	// Name is the reported algorithm name (e.g. "S-MINI").
	Name string
	// Variants are the candidate base configurations; the best on the
	// validation split (at full length) wins before the truncation search.
	// At least one is required.
	Variants []Variant
	// Metric is the optimization target; default HarmonicMean.
	Metric Metric
	// ValFrac is the stratified validation fraction; default 0.25.
	ValFrac float64
	// Grid lists truncation fractions of the series length; the search
	// scores them in ascending order of length up to the first that
	// cannot win. Default {0.05, 0.2, 0.4, 0.6, 0.8, 1}, which all three
	// prebuilt variants use; when Refine is true, a binary-search
	// refinement between the best grid point and its left neighbour
	// follows.
	Grid []float64
	// Refine enables the binary-search refinement pass.
	Refine bool
	// Tolerance is the score slack when preferring earlier truncation
	// points during refinement; default 0.02.
	Tolerance float64
	// MinLength is the smallest admissible truncation; default 3.
	MinLength int
	// Seed drives the validation split.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Metric != HarmonicMean && c.Metric != Accuracy && c.Metric != MacroF1 {
		c.Metric = HarmonicMean
	}
	if c.ValFrac <= 0 || c.ValFrac >= 1 {
		c.ValFrac = 0.25
	}
	if len(c.Grid) == 0 {
		c.Grid = []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1}
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.02
	}
	if c.MinLength <= 0 {
		c.MinLength = 3
	}
	return c
}

// Classifier is a fitted STRUT model implementing core.EarlyClassifier.
type Classifier struct {
	Cfg Config

	cfg      Config
	length   int
	truncAt  int
	base     FullTSC
	chosen   string
	evalLog  []EvalPoint
	numClass int
}

// EvalPoint records one truncation length the search scored (for
// diagnostics and the ablation benchmarks).
type EvalPoint struct {
	Length int
	Score  float64
}

// New returns an untrained STRUT classifier.
func New(cfg Config) *Classifier { return &Classifier{Cfg: cfg} }

// Name implements core.EarlyClassifier.
func (c *Classifier) Name() string {
	if c.Cfg.Name != "" {
		return c.Cfg.Name
	}
	return "STRUT"
}

// Multivariate marks STRUT as natively multivariate (its bases are).
func (c *Classifier) Multivariate() bool { return true }

// TruncationPoint exposes the selected decision time point.
func (c *Classifier) TruncationPoint() int { return c.truncAt }

// ChosenVariant exposes which base variant won the grid search.
func (c *Classifier) ChosenVariant() string { return c.chosen }

// Evaluations lists the (length, score) pairs the search scored, in order:
// the grid points up to the first one that could not win, then any
// refinement probes. Grid points past the stop were never trained.
func (c *Classifier) Evaluations() []EvalPoint { return append([]EvalPoint(nil), c.evalLog...) }

// Fit implements core.EarlyClassifier.
func (c *Classifier) Fit(train *ts.Dataset) error {
	cfg := c.Cfg.withDefaults()
	c.cfg = cfg
	if len(cfg.Variants) == 0 {
		return fmt.Errorf("strut: at least one base variant is required")
	}
	c.numClass = train.NumClasses()
	if c.numClass < 2 {
		return fmt.Errorf("strut: need at least 2 classes")
	}
	c.length = train.MaxLength()
	c.evalLog = nil

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	trainIdx, valIdx, err := ts.StratifiedSplit(train, 1-cfg.ValFrac, rng)
	if err != nil {
		return fmt.Errorf("strut: %w", err)
	}
	trainX, trainY := toInstances(train, trainIdx)
	valX, valY := toInstances(train, valIdx)

	// Pick the base variant by validation accuracy at full length (the
	// harmonic mean is identically zero at t = L and cannot rank
	// variants). A base fit is a function of its constructor and data, so
	// the chosen variant's confusion matrix also scores the t = L grid
	// point without a second fit, when the search reaches it (never under
	// HarmonicMean unless L is the only candidate: it scores 0 there).
	variant := cfg.Variants[0]
	var fullCM *metrics.ConfusionMatrix
	if len(cfg.Variants) > 1 {
		bestScore := -1.0
		for _, v := range cfg.Variants {
			cm, err := c.confusion(v.New, trainX, trainY, valX, valY, c.length)
			if err != nil {
				return fmt.Errorf("strut: variant %s: %w", v.Label, err)
			}
			if score := cm.Accuracy(); score > bestScore {
				bestScore = score
				variant, fullCM = v, cm
			}
		}
	}
	c.chosen = variant.Label

	candidates := candidateLengths(cfg.Grid, c.length, cfg.MinLength)
	best, evals, err := search(candidates, c.length, cfg, func(t int) (float64, error) {
		cm := fullCM
		if t != c.length || cm == nil {
			var err error
			if cm, err = c.confusion(variant.New, trainX, trainY, valX, valY, t); err != nil {
				return 0, err
			}
		}
		return c.score(cm, t), nil
	})
	if err != nil {
		return fmt.Errorf("strut: %w", err)
	}
	c.evalLog, c.truncAt = evals, best

	// Retrain the chosen variant on the whole training set at t*.
	c.base = variant.New()
	allX, allY := toInstances(train, nil)
	return c.base.Fit(truncateAll(allX, best), allY, c.numClass)
}

// confusion trains a fresh base on the training split truncated to t
// and tallies its predictions on the validation split truncated to t.
func (c *Classifier) confusion(newBase func() FullTSC, trainX [][][]float64, trainY []int, valX [][][]float64, valY []int, t int) (*metrics.ConfusionMatrix, error) {
	base := newBase()
	if err := base.Fit(truncateAll(trainX, t), trainY, c.numClass); err != nil {
		return nil, err
	}
	cm := metrics.NewConfusionMatrix(c.numClass)
	for i, inst := range truncateAll(valX, t) {
		cm.Add(valY[i], stats.ArgMax(base.PredictProba(inst)))
	}
	return cm, nil
}

// candidateLengths turns the grid's fractions of length into distinct
// truncation lengths in [minLength, length] (length wins when it is the
// smaller), ascending.
func candidateLengths(grid []float64, length, minLength int) []int {
	candidates := make([]int, 0, len(grid))
	seen := map[int]bool{}
	for _, frac := range grid {
		t := int(frac * float64(length))
		if t < minLength {
			t = minLength
		}
		if t > length {
			t = length
		}
		if !seen[t] {
			seen[t] = true
			candidates = append(candidates, t)
		}
	}
	sort.Ints(candidates)
	return candidates
}

// search walks the ascending candidate lengths and returns the chosen
// truncation and the points it scored, in order. A later candidate wins
// only by scoring more than 1e-12 above the running best. The walk stops
// before the first candidate whose highest reachable score (upperBound)
// does not exceed the running best: the bound falls as t grows, so no
// later candidate could win either, and its fit is never trained. With
// cfg.Refine, a binary search between the best candidate and the one
// below it then looks for an earlier length scoring within cfg.Tolerance
// of the best. score(t) fits and scores the base at length t.
func search(candidates []int, length int, cfg Config, score func(t int) (float64, error)) (int, []EvalPoint, error) {
	var evals []EvalPoint
	best, bestScore := candidates[0], 0.0
	for i, t := range candidates {
		if i > 0 && upperBound(cfg.Metric, t, length) <= bestScore {
			break
		}
		s, err := score(t)
		if err != nil {
			return 0, nil, fmt.Errorf("truncation %d: %w", t, err)
		}
		evals = append(evals, EvalPoint{Length: t, Score: s})
		if i == 0 || s > bestScore+1e-12 {
			best, bestScore = t, s
		}
	}

	// Binary-search refinement: probe between the best point and its left
	// neighbour for an earlier length whose score stays within Tolerance.
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
				return 0, nil, fmt.Errorf("refine %d: %w", mid, err)
			}
			evals = append(evals, EvalPoint{Length: mid, Score: s})
			if s >= bestScore-cfg.Tolerance {
				hi = mid
			} else {
				lo = mid
			}
		}
		best = hi
	}
	return best, evals, nil
}

// upperBound is the highest score the metric can reach at truncation t
// of a length-long series: a perfect validation accuracy at t's
// earliness for HarmonicMean (0 at t = length), and 1 otherwise.
func upperBound(m Metric, t, length int) float64 {
	if m == HarmonicMean {
		return metrics.HarmonicMean(1, earliness(t, length))
	}
	return 1
}

// earliness is the share of a length-long series read at truncation t.
func earliness(t, length int) float64 { return float64(t) / float64(length) }

// score is the configured metric of a validation confusion matrix at
// truncation t.
func (c *Classifier) score(cm *metrics.ConfusionMatrix, t int) float64 {
	switch c.cfg.Metric {
	case Accuracy:
		return cm.Accuracy()
	case MacroF1:
		return cm.MacroF1()
	default:
		return metrics.HarmonicMean(cm.Accuracy(), earliness(t, c.length))
	}
}

// Classify implements core.EarlyClassifier: STRUT always predicts at its
// fixed truncation point (clamped to the instance length).
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	t := c.truncAt
	if t > in.Length() {
		t = in.Length()
	}
	prefix := make([][]float64, in.NumVars())
	for v := range prefix {
		prefix[v] = in.Values[v][:t]
	}
	return stats.ArgMax(c.base.PredictProba(prefix)), t
}

// probaBatcher is implemented by bases (MiniROCKET) that can transform a
// batch sharing one scratch arena.
type probaBatcher interface {
	PredictProbaBatch(instances [][][]float64) [][]float64
}

// ClassifyBatch implements core.BatchClassifier: all truncated prefixes
// go through the base in one call when it supports batching, so the
// transform scratch is shared across the fold instead of re-allocated
// per instance. Decisions equal per-instance Classify exactly (STRUT's
// decision point is fixed, and batch transforms are bit-identical).
func (c *Classifier) ClassifyBatch(instances []ts.Instance, labels, consumed []int) {
	pb, ok := c.base.(probaBatcher)
	if !ok {
		for i, in := range instances {
			labels[i], consumed[i] = c.Classify(in)
		}
		return
	}
	prefixes := make([][][]float64, len(instances))
	for i, in := range instances {
		t := c.truncAt
		if t > in.Length() {
			t = in.Length()
		}
		consumed[i] = t
		prefix := make([][]float64, in.NumVars())
		for v := range prefix {
			prefix[v] = in.Values[v][:t]
		}
		prefixes[i] = prefix
	}
	for i, proba := range pb.PredictProbaBatch(prefixes) {
		labels[i] = stats.ArgMax(proba)
	}
}

func toInstances(d *ts.Dataset, indices []int) ([][][]float64, []int) {
	if indices == nil {
		indices = make([]int, d.Len())
		for i := range indices {
			indices[i] = i
		}
	}
	X := make([][][]float64, len(indices))
	y := make([]int, len(indices))
	for i, idx := range indices {
		X[i] = d.Instances[idx].Values
		y[i] = d.Instances[idx].Label
	}
	return X, y
}

func truncateAll(X [][][]float64, t int) [][][]float64 {
	out := make([][][]float64, len(X))
	for i, inst := range X {
		trunc := make([][]float64, len(inst))
		for v, row := range inst {
			if len(row) > t {
				trunc[v] = row[:t]
			} else {
				trunc[v] = row
			}
		}
		out[i] = trunc
	}
	return out
}
