package neural

import (
	"fmt"
	"math/rand"
	"testing"
)

// convShapes are the three MLSTM-FCN convolution blocks at the Fast
// preset on a univariate series: 1→8 (k8), 8→16 (k5), 16→8 (k3).
var convShapes = []struct{ in, out, k int }{{1, 8, 8}, {8, 16, 5}, {16, 8, 3}}

const convBenchT = 128

// convSink keeps the measured calls from being optimized away.
var convSink [][]float64

func BenchmarkConv1DForward(b *testing.B) {
	for _, s := range convShapes {
		b.Run(fmt.Sprintf("%dto%d_k%d", s.in, s.out, s.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			layer := NewConv1D(s.in, s.out, s.k, rng)
			x := randMatrix(rng, s.in, convBenchT)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convSink = layer.Forward(x, true)
			}
		})
	}
}

func BenchmarkConv1DBackward(b *testing.B) {
	for _, s := range convShapes {
		b.Run(fmt.Sprintf("%dto%d_k%d", s.in, s.out, s.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			layer := NewConv1D(s.in, s.out, s.k, rng)
			x := randMatrix(rng, s.in, convBenchT)
			grad := randMatrix(rng, s.out, convBenchT)
			// About half the upstream gradient is zero, as behind a ReLU.
			for _, row := range grad {
				for t := range row {
					if row[t] < 0 {
						row[t] = 0
					}
				}
			}
			layer.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convSink = layer.Backward(grad)
			}
		})
	}
}
