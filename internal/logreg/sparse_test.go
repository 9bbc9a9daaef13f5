package logreg

import (
	"math"
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/stats"
)

// denseFit is Fit with dense logits and gradient loops over every column
// (defaults already applied to cfg): the reference the nonzero-column
// form must match bit for bit.
func denseFit(cfg Config, X [][]float64, y []int, numClasses int) (weights [][]float64, bias []float64) {
	n, dim := len(X), len(X[0])
	zeros := func() [][]float64 {
		m := make([][]float64, numClasses)
		for c := range m {
			m[c] = make([]float64, dim)
		}
		return m
	}
	weights, bias = zeros(), make([]float64, numClasses)
	mw, vw, gradW := zeros(), zeros(), zeros()
	mb, vb, gradB := make([]float64, numClasses), make([]float64, numClasses), make([]float64, numClasses)
	logits, probs := make([]float64, numClasses), make([]float64, numClasses)
	batch := cfg.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := min(start+batch, n)
			bs := float64(end - start)
			for c := 0; c < numClasses; c++ {
				for j := range gradW[c] {
					gradW[c][j] = 0
				}
				gradB[c] = 0
			}
			for _, idx := range order[start:end] {
				x := X[idx]
				for c := 0; c < numClasses; c++ {
					sum := bias[c]
					for j, xv := range x {
						if xv != 0 {
							sum += weights[c][j] * xv
						}
					}
					logits[c] = sum
				}
				stats.Softmax(logits, probs)
				for c := 0; c < numClasses; c++ {
					g := probs[c]
					if c == y[idx] {
						g -= 1
					}
					if g == 0 {
						continue
					}
					for j, xv := range x {
						gradW[c][j] += g * xv
					}
					gradB[c] += g
				}
			}
			step++
			corr1 := 1 - math.Pow(beta1, float64(step))
			corr2 := 1 - math.Pow(beta2, float64(step))
			for c := 0; c < numClasses; c++ {
				w := weights[c]
				for j := range w {
					g := gradW[c][j]/bs + cfg.L2*w[j]
					mw[c][j] = beta1*mw[c][j] + (1-beta1)*g
					vw[c][j] = beta2*vw[c][j] + (1-beta2)*g*g
					w[j] -= cfg.LearningRate * (mw[c][j] / corr1) / (math.Sqrt(vw[c][j]/corr2) + eps)
				}
				g := gradB[c] / bs
				mb[c] = beta1*mb[c] + (1-beta1)*g
				vb[c] = beta2*vb[c] + (1-beta2)*g*g
				bias[c] -= cfg.LearningRate * (mb[c] / corr1) / (math.Sqrt(vb[c]/corr2) + eps)
			}
		}
	}
	return weights, bias
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sparseRows draws word-count-like rows: mostly zeros, some negative
// values, row 0 and column 1 all zero.
func sparseRows(rng *rand.Rand, n, dim, numClasses int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % numClasses
		X[i] = make([]float64, dim)
		if i == 0 {
			continue
		}
		for j := range X[i] {
			if j != 1 && rng.Float64() < 0.2 {
				X[i][j] = float64(rng.Intn(5)) - 1 + float64(y[i])
			}
		}
	}
	return X, y
}

func TestFitMatchesDenseReferenceBits(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		numClasses int
		tweak      func(X [][]float64)
	}{
		{"full batch", Config{Epochs: 30}, 3, nil},
		{"mini batch", Config{Epochs: 20, BatchSize: 7, Seed: 5, L2: 1e-3}, 4, nil},
		{"binary", Config{Epochs: 25, LearningRate: 0.2}, 2, nil},
		// An infinite feature makes a logit infinite and the softmax NaN;
		// NaN·0 then reaches every column, as in the dense loop.
		{"non-finite", Config{Epochs: 5}, 2, func(X [][]float64) { X[3][2] = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			X, y := sparseRows(rng, 41, 23, tc.numClasses)
			if tc.tweak != nil {
				tc.tweak(X)
			}
			m := New(tc.cfg)
			if err := m.Fit(X, y, tc.numClasses); err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			if cfg.L2 == 0 {
				cfg.L2 = 1e-4
			}
			if cfg.LearningRate == 0 {
				cfg.LearningRate = 0.05
			}
			wantW, wantB := denseFit(cfg, X, y, tc.numClasses)
			for c := range wantW {
				if !sameBits(m.weights[c], wantW[c]) {
					t.Fatalf("class %d weights:\n got  %v\n want %v", c, m.weights[c], wantW[c])
				}
			}
			if !sameBits(m.bias, wantB) {
				t.Fatalf("bias:\n got  %v\n want %v", m.bias, wantB)
			}
		})
	}
}
