package neural

import (
	"math"
	"math/rand"
)

// ReLU applies max(0, x) element-wise on [channels][time] activations:
// v > 0 keeps v, and everything else, −0 and NaN included, gives +0.
type ReLU struct {
	mask    [][]uint64  // all ones where the input was > 0, else zero
	out, dx [][]float64 // training-path buffers
}

// positive returns all ones when v > 0 and zero otherwise, NaN included.
// The compiler makes the test a conditional move, so the ReLU loops keep
// a mask select and no data-dependent branch.
func positive(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// Forward clamps everything but positive values to +0.
func (r *ReLU) Forward(x [][]float64, train bool) [][]float64 {
	y := scratch(&r.out, train, len(x), len(x[0]))
	if train {
		scratch(&r.mask, true, len(x), len(x[0]))
	}
	for c, xc := range x {
		yc := y[c][:len(xc)]
		if !train {
			for t, v := range xc {
				yc[t] = math.Float64frombits(math.Float64bits(v) & positive(v))
			}
			continue
		}
		mc := r.mask[c][:len(xc)]
		for t, v := range xc {
			m := positive(v)
			mc[t] = m
			yc[t] = math.Float64frombits(math.Float64bits(v) & m)
		}
	}
	return y
}

// Backward passes each gradient where the input was positive and writes
// +0 elsewhere.
func (r *ReLU) Backward(grad [][]float64) [][]float64 {
	dx := scratch(&r.dx, true, len(grad), len(grad[0]))
	for c, gc := range grad {
		mask, dc := r.mask[c][:len(gc)], dx[c][:len(gc)]
		for t, g := range gc {
			dc[t] = math.Float64frombits(math.Float64bits(g) & mask[t])
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
