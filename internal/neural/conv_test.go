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

// convGradKinds shape the upstream gradient of one Backward call.
var convGradKinds = []struct {
	name string
	fill func(grad [][]float64)
}{
	// Dense, as from ChannelNorm.Backward in MLSTM-FCN.
	{"dense", func([][]float64) {}},
	// Row 0 all zero and the others about half zero, as behind a ReLU.
	{"half zero", func(grad [][]float64) {
		for o, row := range grad {
			for i := range row {
				if o == 0 || row[i] < 0 {
					row[i] = 0
				}
			}
		}
	}},
	// Exact +0 and −0 entries between dense ones.
	{"signed zeros", func(grad [][]float64) {
		for _, row := range grad {
			for i := range row {
				switch i % 3 {
				case 0:
					row[i] = 0
				case 1:
					row[i] = math.Copysign(0, -1)
				}
			}
		}
	}},
}

// convPoisons plant non-finite values in the gradient. A non-finite
// input or weight is not covered: the reference skips g == 0 terms, and
// 0·Inf is NaN, so the two differ there by design (see Backward).
var convPoisons = []struct {
	name  string
	apply func(grad [][]float64)
}{
	{"finite", func([][]float64) {}},
	{"nan grad", func(grad [][]float64) { grad[len(grad)-1][0] = math.NaN() }},
	{"inf grad", func(grad [][]float64) { grad[0][len(grad[0])-1] = math.Inf(-1) }},
}

// TestConv1DMatchesReferenceBits runs three successive Forward/Backward
// pairs on one layer, with the series length changing between them, and
// requires the bits of the per-output, per-tap reference loops at every
// step: outputs, input gradients and the accumulated weight and bias
// gradients. Reused buffers therefore cannot leak stale values.
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
			for _, gk := range convGradKinds {
				for _, poison := range convPoisons {
					t.Run(gk.name+"/"+poison.name, func(t *testing.T) {
						checkConvAgainstReference(t, tc.in, tc.out, tc.k, tc.T, gk.fill, poison.apply)
					})
				}
			}
		})
	}
}

func checkConvAgainstReference(t *testing.T, in, out, k, T int, fill, poison func([][]float64)) {
	rng := rand.New(rand.NewSource(int64(in*100 + k*10 + T)))
	layer := NewConv1D(in, out, k, rng)
	for i := range layer.bias.Val {
		layer.bias.Val[i] = rng.NormFloat64()
	}
	// Backward accumulates into Grad; the reference accumulates the
	// same way across calls.
	wGrad := make([]float64, len(layer.weight.Grad))
	bGrad := make([]float64, len(layer.bias.Grad))
	for call, length := range []int{T, max(T-3, 1), T + 2} {
		x := randMatrix(rng, in, length)
		grad := randMatrix(rng, out, length)
		fill(grad)
		poison(grad)
		y := layer.Forward(x, true)
		want := refConvForward(layer, x)
		for o := range y {
			if !sameBits(y[o], want[o]) {
				t.Fatalf("call %d forward row %d:\n got  %v\n want %v", call, o, y[o], want[o])
			}
		}
		dx := layer.Backward(grad)
		wantDx := refConvBackward(layer, x, grad, wGrad, bGrad)
		for i := range dx {
			if !sameBits(dx[i], wantDx[i]) {
				t.Fatalf("call %d dx row %d:\n got  %v\n want %v", call, i, dx[i], wantDx[i])
			}
		}
		if !sameBits(layer.weight.Grad, wGrad) {
			t.Fatalf("call %d weight grad:\n got  %v\n want %v", call, layer.weight.Grad, wGrad)
		}
		if !sameBits(layer.bias.Grad, bGrad) {
			t.Fatalf("call %d bias grad:\n got  %v\n want %v", call, layer.bias.Grad, bGrad)
		}
	}
}
