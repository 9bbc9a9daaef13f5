package gbdt

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/goetsc/goetsc/internal/ml"
	"github.com/goetsc/goetsc/internal/stats"
)

// Config holds the boosting hyper-parameters. Zero values select defaults.
type Config struct {
	// Rounds is the number of boosting iterations. Default 50.
	Rounds int
	// LearningRate shrinks each tree's contribution. Default 0.3.
	LearningRate float64
	// MaxDepth bounds tree depth. Default 3.
	MaxDepth int
	// Lambda is the L2 penalty on leaf weights. Default 1.
	Lambda float64
	// Gamma is the minimum gain required to split. Default 0.
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child. Default 1.
	MinChildWeight float64
	// Subsample is the row-sampling fraction per round in (0, 1]; 1 (or 0)
	// disables sampling.
	Subsample float64
	// Seed drives subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.3
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight == 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	return c
}

// Model is a boosted-tree classifier implementing ml.Classifier. Binary
// problems use a single logistic ensemble; multiclass problems train one
// tree per class per round under a softmax objective.
type Model struct {
	Cfg Config

	numClasses int
	trees      [][]*tree // [round][class] (binary: one entry per round)
	baseScore  []float64 // initial log-odds per class
	binary     bool
}

var _ ml.Classifier = (*Model)(nil)

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{Cfg: cfg} }

// Fit trains the ensemble.
func (m *Model) Fit(X [][]float64, y []int, numClasses int) error {
	if len(X) == 0 {
		return fmt.Errorf("gbdt: no samples")
	}
	if len(X) != len(y) {
		return fmt.Errorf("gbdt: %d samples but %d labels", len(X), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("gbdt: need at least 2 classes, got %d", numClasses)
	}
	dim := len(X[0])
	for i, x := range X {
		if len(x) != dim {
			return fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(x), dim)
		}
	}
	cfg := m.Cfg.withDefaults()
	m.numClasses = numClasses
	m.binary = numClasses == 2
	n := len(X)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	tp := treeParams{
		maxDepth:       cfg.MaxDepth,
		lambda:         cfg.Lambda,
		gamma:          cfg.Gamma,
		minChildWeight: cfg.MinChildWeight,
	}

	counts := make([]float64, numClasses)
	for _, label := range y {
		counts[label]++
	}
	m.baseScore = make([]float64, numClasses)
	for c := range m.baseScore {
		p := (counts[c] + 1) / (float64(n) + float64(numClasses))
		m.baseScore[c] = math.Log(p / (1 - p))
	}
	m.trees = nil
	gr := newGrower(X, tp)
	// Every tree sees the same rows without subsampling, so each feature
	// is sorted once per Fit; with subsampling, once per round.
	var root [][]valueSample
	columns := func(samples []int) [][]valueSample {
		if root == nil {
			root = newColumns(dim, len(samples))
		} else if cfg.Subsample >= 1 {
			return root
		}
		sortColumns(root, X, samples)
		return root
	}

	if m.binary {
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = m.baseScore[1]
		}
		g := make([]float64, n)
		h := make([]float64, n)
		for round := 0; round < cfg.Rounds; round++ {
			for i := range X {
				p := sigmoid(scores[i])
				target := 0.0
				if y[i] == 1 {
					target = 1
				}
				g[i] = p - target
				h[i] = p * (1 - p)
			}
			samples := sampleRows(n, cfg.Subsample, rng)
			tr := gr.build(g, h, samples, columns(samples))
			m.trees = append(m.trees, []*tree{tr})
			for i := range X {
				scores[i] += cfg.LearningRate * tr.predict(X[i])
			}
		}
		return nil
	}

	// Multiclass softmax objective.
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = append([]float64(nil), m.baseScore...)
	}
	g := make([]float64, n)
	h := make([]float64, n)
	probs := make([]float64, numClasses)
	for round := 0; round < cfg.Rounds; round++ {
		roundTrees := make([]*tree, numClasses)
		samples := sampleRows(n, cfg.Subsample, rng)
		cols := columns(samples)
		for c := 0; c < numClasses; c++ {
			for i := range X {
				stats.Softmax(scores[i], probs)
				p := probs[c]
				target := 0.0
				if y[i] == c {
					target = 1
				}
				g[i] = p - target
				h[i] = p * (1 - p)
				if h[i] < 1e-12 {
					h[i] = 1e-12
				}
			}
			roundTrees[c] = gr.build(g, h, samples, cols)
		}
		m.trees = append(m.trees, roundTrees)
		for i := range X {
			for c := 0; c < numClasses; c++ {
				scores[i][c] += cfg.LearningRate * roundTrees[c].predict(X[i])
			}
		}
	}
	return nil
}

func sampleRows(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	k := int(float64(n) * frac)
	if k < 2 {
		k = 2
		if k > n {
			k = n
		}
	}
	perm := rng.Perm(n)
	return perm[:k]
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// rawScores accumulates the ensemble output for one sample.
func (m *Model) rawScores(x []float64) []float64 {
	cfg := m.Cfg.withDefaults()
	if m.binary {
		score := m.baseScore[1]
		for _, round := range m.trees {
			score += cfg.LearningRate * round[0].predict(x)
		}
		return []float64{-score, score}
	}
	scores := append([]float64(nil), m.baseScore...)
	for _, round := range m.trees {
		for c, tr := range round {
			scores[c] += cfg.LearningRate * tr.predict(x)
		}
	}
	return scores
}

// PredictProba returns class probabilities: sigmoid for binary problems,
// softmax otherwise.
func (m *Model) PredictProba(x []float64) []float64 {
	scores := m.rawScores(x)
	if m.binary {
		p := sigmoid(scores[1])
		return []float64{1 - p, p}
	}
	return stats.Softmax(scores, nil)
}

// Predict returns the most probable class.
func (m *Model) Predict(x []float64) int { return stats.ArgMax(m.PredictProba(x)) }

// NumTrees returns the total number of trees in the ensemble.
func (m *Model) NumTrees() int {
	total := 0
	for _, round := range m.trees {
		total += len(round)
	}
	return total
}
