package logreg

import (
	"math/rand"
	"testing"
)

// modelSink keeps the measured call from being optimized away.
var modelSink *Model

// BenchmarkLogregFit trains on WEASEL-like rows: 200 samples of 500
// word-count features, about 83% of them zero, in three classes.
func BenchmarkLogregFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, dim = 200, 500
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % 3
		X[i] = make([]float64, dim)
		for j := range X[i] {
			if rng.Float64() < 0.17 {
				X[i][j] = float64(1 + rng.Intn(4))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(Config{Seed: 1})
		if err := m.Fit(X, y, 3); err != nil {
			b.Fatal(err)
		}
		modelSink = m
	}
}
