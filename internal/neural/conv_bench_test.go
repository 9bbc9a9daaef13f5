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

// BenchmarkConv1DBackward runs Backward on a dense upstream gradient, as
// in MLSTM-FCN where it comes from ChannelNorm.Backward, and on one about
// half zero, as behind a ReLU.
func BenchmarkConv1DBackward(b *testing.B) {
	for _, s := range convShapes {
		for _, sparse := range []bool{false, true} {
			name := "dense"
			if sparse {
				name = "halfzero"
			}
			b.Run(fmt.Sprintf("%dto%d_k%d/%s", s.in, s.out, s.k, name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				layer := NewConv1D(s.in, s.out, s.k, rng)
				x := randMatrix(rng, s.in, convBenchT)
				grad := randMatrix(rng, s.out, convBenchT)
				for _, row := range grad {
					for t := range row {
						if sparse && row[t] < 0 {
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
}
