package sfa

import (
	"math/rand"
	"testing"
)

// fitSink keeps the measured call from being optimized away.
var fitSink *Transform

// BenchmarkSFAFit fits one word transform on 400 odd-length windows in
// three classes: Fourier values, per-value sort and information-gain
// binning.
func BenchmarkSFAFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, w = 400, 37
	windows := make([][]float64, n)
	labels := make([]int, n)
	for i := range windows {
		labels[i] = i % 3
		windows[i] = make([]float64, w)
		for t := range windows[i] {
			windows[i][t] = rng.NormFloat64() + float64(labels[i])*0.3
		}
	}
	cfg := Config{WordLength: 4, Alphabet: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Fit(windows, labels, 3, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fitSink = tr
	}
}
