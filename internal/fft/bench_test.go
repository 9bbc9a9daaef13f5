package fft

import (
	"math/rand"
	"testing"
)

// coeffSink keeps the measured call from being optimized away.
var coeffSink []float64

// BenchmarkCoefficientsOddLength measures the non-power-of-two path SFA
// takes for most window sizes: the first three bins of a 101-point window.
func BenchmarkCoefficientsOddLength(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 101)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coeffSink = Coefficients(x, 3, false)
	}
}
