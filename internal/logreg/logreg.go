// Package logreg implements multinomial (softmax) logistic regression
// trained with Adam, the linear classification head used by WEASEL-based
// pipelines (WEASEL, ECEC, TEASER) throughout the framework.
package logreg

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/goetsc/goetsc/internal/linalg"
	"github.com/goetsc/goetsc/internal/ml"
	"github.com/goetsc/goetsc/internal/stats"
)

// Config holds training hyper-parameters. The zero value selects sensible
// defaults via (*Model).Fit.
type Config struct {
	// L2 is the ridge penalty on the weights (not the bias). Default 1e-4.
	L2 float64
	// LearningRate is Adam's step size. Default 0.05.
	LearningRate float64
	// Epochs is the number of passes over the data. Default 100.
	Epochs int
	// BatchSize is the mini-batch size; 0 uses full-batch gradients.
	BatchSize int
	// Seed drives mini-batch shuffling.
	Seed int64
}

// Model is a trained multinomial logistic-regression classifier.
// It satisfies ml.Classifier.
type Model struct {
	Cfg Config

	numClasses int
	dim        int
	weights    [][]float64 // [class][feature]
	bias       []float64
}

var _ ml.Classifier = (*Model)(nil)

// New returns an untrained model with the given configuration.
func New(cfg Config) *Model { return &Model{Cfg: cfg} }

// Fit trains the classifier on rows X with labels y in [0, numClasses).
func (m *Model) Fit(X [][]float64, y []int, numClasses int) error {
	if len(X) == 0 {
		return fmt.Errorf("logreg: no samples")
	}
	if len(X) != len(y) {
		return fmt.Errorf("logreg: %d samples but %d labels", len(X), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("logreg: need at least 2 classes, got %d", numClasses)
	}
	dim := len(X[0])
	for i, x := range X {
		if len(x) != dim {
			return fmt.Errorf("logreg: row %d has %d features, want %d", i, len(x), dim)
		}
	}
	cfg := m.Cfg
	if cfg.L2 == 0 {
		cfg.L2 = 1e-4
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 100
	}
	m.numClasses = numClasses
	m.dim = dim
	m.weights = make([][]float64, numClasses)
	for c := range m.weights {
		m.weights[c] = make([]float64, dim)
	}
	m.bias = make([]float64, numClasses)

	n := len(X)
	batch := cfg.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Adam state.
	mw := make([][]float64, numClasses)
	vw := make([][]float64, numClasses)
	for c := range mw {
		mw[c] = make([]float64, dim)
		vw[c] = make([]float64, dim)
	}
	mb := make([]float64, numClasses)
	vb := make([]float64, numClasses)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0
	gradW := make([][]float64, numClasses)
	for c := range gradW {
		gradW[c] = make([]float64, dim)
	}
	gradB := make([]float64, numClasses)
	probs := make([]float64, numClasses)
	logits := make([]float64, numClasses)
	// WEASEL rows are mostly zeros. A zero column adds nothing to a logit
	// (logits skips it too) nor, for finite g, to a gradient sum: g·0 is
	// ±0, and a sum that starts at +0 never becomes −0. So both loops
	// visit only each row's nonzero columns, listed once per Fit.
	nonzero := nonzeroColumns(X)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			bs := float64(end - start)
			for c := 0; c < numClasses; c++ {
				for j := range gradW[c] {
					gradW[c][j] = 0
				}
				gradB[c] = 0
			}
			for _, idx := range order[start:end] {
				x, cols := X[idx], nonzero[idx]
				m.sparseLogits(x, cols, logits)
				stats.Softmax(logits, probs)
				for c := 0; c < numClasses; c++ {
					g := probs[c]
					if c == y[idx] {
						g -= 1
					}
					if g == 0 {
						continue
					}
					gw := gradW[c]
					if math.IsNaN(g) {
						// NaN·0 is NaN: every column takes the term.
						for j, xv := range x {
							gw[j] += g * xv
						}
					} else {
						for _, j := range cols {
							gw[j] += g * x[j]
						}
					}
					gradB[c] += g
				}
			}
			step++
			corr1 := 1 - math.Pow(beta1, float64(step))
			corr2 := 1 - math.Pow(beta2, float64(step))
			adam := linalg.AdamConsts{
				Batch: bs, L2: cfg.L2,
				Beta1: beta1, OneMinusBeta1: 1 - beta1,
				Beta2: beta2, OneMinusBeta2: 1 - beta2,
				LR: cfg.LearningRate, Corr1: corr1, Corr2: corr2, Eps: eps,
			}
			for c := 0; c < numClasses; c++ {
				// The dense weight step, in the expression order
				// linalg.AdamStep documents.
				linalg.AdamStep(m.weights[c], mw[c], vw[c], gradW[c], &adam)
				g := gradB[c] / bs
				mb[c] = beta1*mb[c] + (1-beta1)*g
				vb[c] = beta2*vb[c] + (1-beta2)*g*g
				m.bias[c] -= cfg.LearningRate * (mb[c] / corr1) / (math.Sqrt(vb[c]/corr2) + eps)
			}
		}
	}
	return nil
}

func (m *Model) logits(x []float64, out []float64) {
	for c := 0; c < m.numClasses; c++ {
		w := m.weights[c]
		sum := m.bias[c]
		for j, xv := range x {
			if xv != 0 {
				sum += w[j] * xv
			}
		}
		out[c] = sum
	}
}

// nonzeroColumns lists, per row, the columns holding a value other than
// ±0 (NaN included), in ascending order. The lists share one backing
// array.
func nonzeroColumns(X [][]float64) [][]int {
	total := 0
	for _, x := range X {
		for _, xv := range x {
			if xv != 0 {
				total++
			}
		}
	}
	flat := make([]int, 0, total)
	out := make([][]int, len(X))
	for i, x := range X {
		start := len(flat)
		for j, xv := range x {
			if xv != 0 {
				flat = append(flat, j)
			}
		}
		out[i] = flat[start:]
	}
	return out
}

// sparseLogits is logits over the nonzero columns cols of x.
func (m *Model) sparseLogits(x []float64, cols []int, out []float64) {
	for c := 0; c < m.numClasses; c++ {
		w := m.weights[c]
		sum := m.bias[c]
		for _, j := range cols {
			sum += w[j] * x[j]
		}
		out[c] = sum
	}
}

// PredictProba returns class probabilities for one sample. Inputs shorter
// than the training dimension are treated as zero-padded; longer inputs are
// truncated.
func (m *Model) PredictProba(x []float64) []float64 {
	return m.PredictProbaInto(nil, x)
}

// PredictProbaInto is PredictProba writing into dst (grown as needed),
// so a caller-held buffer makes repeated predictions allocation-free.
// The computation is identical, point for point.
func (m *Model) PredictProbaInto(dst []float64, x []float64) []float64 {
	if len(x) > m.dim {
		x = x[:m.dim]
	}
	if cap(dst) < m.numClasses {
		dst = make([]float64, m.numClasses)
	} else {
		dst = dst[:m.numClasses]
	}
	m.logits(x, dst)
	return stats.Softmax(dst, dst)
}

// Predict returns the argmax class for one sample.
func (m *Model) Predict(x []float64) int { return stats.ArgMax(m.PredictProba(x)) }
