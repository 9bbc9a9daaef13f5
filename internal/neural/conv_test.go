package neural

import (
	"math"
	"math/rand"
	"testing"
)

// refConvForward is the per-output, per-tap convolution with a bounds
// test on every tap: the reference the axpy form must match bit for bit.
func refConvForward(c *Conv1D, x [][]float64) [][]float64 {
	T := len(x[0])
	left := (c.Kernel - 1) / 2
	y := matrix(c.OutChannels, T)
	for o := 0; o < c.OutChannels; o++ {
		for t := 0; t < T; t++ {
			sum := c.bias.Val[o]
			for in := 0; in < c.InChannels; in++ {
				for k := 0; k < c.Kernel; k++ {
					src := t + k - left
					if src < 0 || src >= T {
						continue
					}
					sum += c.weight.Val[c.w(o, in, k)] * x[in][src]
				}
			}
			y[o][t] = sum
		}
	}
	return y
}

// refConvBackward is the per-tap backward pass with a bounds test on
// every tap, accumulating into the given gradient buffers.
func refConvBackward(c *Conv1D, x, grad [][]float64, wGrad, bGrad []float64) [][]float64 {
	T := len(x[0])
	left := (c.Kernel - 1) / 2
	dx := matrix(c.InChannels, T)
	for o := 0; o < c.OutChannels; o++ {
		for t := 0; t < T; t++ {
			g := grad[o][t]
			if g == 0 {
				continue
			}
			bGrad[o] += g
			for in := 0; in < c.InChannels; in++ {
				for k := 0; k < c.Kernel; k++ {
					src := t + k - left
					if src < 0 || src >= T {
						continue
					}
					wGrad[c.w(o, in, k)] += g * x[in][src]
					dx[in][src] += g * c.weight.Val[c.w(o, in, k)]
				}
			}
		}
	}
	return dx
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

func TestConv1DMatchesReferenceBits(t *testing.T) {
	cases := []struct {
		name          string
		in, out, k, T int
	}{
		{"odd kernel", 2, 3, 5, 17},
		{"even kernel", 3, 2, 8, 20},
		{"kernel longer than series", 2, 2, 9, 4},
		{"single point", 3, 2, 5, 1},
		{"unit kernel", 2, 3, 1, 6},
		{"mlstm block 2", 8, 16, 5, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.in*100 + tc.k*10 + tc.T)))
			layer := NewConv1D(tc.in, tc.out, tc.k, rng)
			for i := range layer.bias.Val {
				layer.bias.Val[i] = rng.NormFloat64()
			}
			x := randMatrix(rng, tc.in, tc.T)
			y := layer.Forward(x, true)
			want := refConvForward(layer, x)
			for o := range y {
				if !sameBits(y[o], want[o]) {
					t.Fatalf("forward row %d:\n got  %v\n want %v", o, y[o], want[o])
				}
			}

			// Row 0 is all zero and the others are about half zero, so
			// both the whole-row and the per-point skip are exercised.
			grad := randMatrix(rng, tc.out, tc.T)
			for o, row := range grad {
				for i := range row {
					if o == 0 || row[i] < 0 {
						row[i] = 0
					}
				}
			}
			wGrad := make([]float64, len(layer.weight.Grad))
			bGrad := make([]float64, len(layer.bias.Grad))
			// Repeated calls accumulate into Grad; the reference
			// accumulates the same way.
			for call := 0; call < 3; call++ {
				dx := layer.Backward(grad)
				wantDx := refConvBackward(layer, x, grad, wGrad, bGrad)
				for in := range dx {
					if !sameBits(dx[in], wantDx[in]) {
						t.Fatalf("call %d dx row %d:\n got  %v\n want %v", call, in, dx[in], wantDx[in])
					}
				}
				if !sameBits(layer.weight.Grad, wGrad) {
					t.Fatalf("call %d weight grad:\n got  %v\n want %v", call, layer.weight.Grad, wGrad)
				}
				if !sameBits(layer.bias.Grad, bGrad) {
					t.Fatalf("call %d bias grad:\n got  %v\n want %v", call, layer.bias.Grad, bGrad)
				}
			}
		})
	}
}
