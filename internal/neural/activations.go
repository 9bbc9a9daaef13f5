package neural

import (
	"math"
	"math/rand"
)

// ReLU applies max(0, x) element-wise on [channels][time] activations.
type ReLU struct {
	mask    [][]bool
	out, dx [][]float64 // training-path buffers
}

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x [][]float64, train bool) [][]float64 {
	y := scratch(&r.out, train, len(x), len(x[0]))
	if train {
		scratch(&r.mask, true, len(x), len(x[0]))
	}
	for c, xc := range x {
		yc := y[c][:len(xc)]
		for t, v := range xc {
			if v > 0 {
				yc[t] = v
			} else {
				yc[t] = 0
			}
		}
		if train {
			mc := r.mask[c][:len(xc)]
			for t, v := range xc {
				mc[t] = v > 0
			}
		}
	}
	return y
}

// Backward zeroes gradients where the input was negative.
func (r *ReLU) Backward(grad [][]float64) [][]float64 {
	dx := scratch(&r.dx, true, len(grad), len(grad[0]))
	for c, gc := range grad {
		mask, dc := r.mask[c][:len(gc)], dx[c][:len(gc)]
		for t, g := range gc {
			if mask[t] {
				dc[t] = g
			} else {
				dc[t] = 0
			}
		}
	}
	return dx
}

// Dropout zeroes a fraction of vector activations during training, scaling
// the survivors (inverted dropout).
type Dropout struct {
	Rate float64
	rng  *rand.Rand
	mask []float64

	out, dx []float64 // training-path buffers
}

// NewDropout creates a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	return &Dropout{Rate: rate, rng: rng}
}

// ForwardVec applies dropout to a flat vector.
func (d *Dropout) ForwardVec(x []float64, train bool) []float64 {
	if !train || d.Rate <= 0 {
		return x
	}
	y := scratchVec(&d.out, true, len(x))
	d.mask = grow(d.mask, len(x))
	keep := 1 - d.Rate
	for i, v := range x {
		if d.rng.Float64() < keep {
			d.mask[i] = 1 / keep
			y[i] = v / keep
		} else {
			d.mask[i], y[i] = 0, 0
		}
	}
	return y
}

// BackwardVec propagates gradients through the dropout mask.
func (d *Dropout) BackwardVec(grad []float64) []float64 {
	if d.mask == nil {
		return grad
	}
	dx := scratchVec(&d.dx, true, len(grad))
	for i, g := range grad {
		dx[i] = g * d.mask[i]
	}
	return dx
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func tanh(z float64) float64 { return math.Tanh(z) }
