// Package neural is a small neural-network layer library with manual
// backpropagation, sufficient to assemble the MLSTM-FCN classifier of
// Karim et al. (Neural Networks 2019): 1-D convolutions, per-channel
// normalization, ReLU, dropout, squeeze-and-excite blocks, global average
// pooling, an LSTM with backpropagation through time, dense layers and a
// softmax cross-entropy loss, trained with Adam.
//
// Activations flow through layers as [channels][time] matrices for the
// convolutional path and as flat vectors for the fully-connected path.
// Layers process one sample at a time; mini-batching is achieved by
// accumulating gradients across samples before an optimizer step.
//
// On the training path (train == true, and every Backward) a layer writes
// its outputs, caches and gradients into buffers it owns and reuses them
// from sample to sample, so a training step allocates nothing once they
// have grown to the largest sample. A returned buffer is valid until the
// layer's next call of the same method. Inference (train == false)
// allocates fresh, so one trained network serves concurrent inference
// calls.
package neural

import (
	"math"
	"math/rand"
)

// Param is one learnable tensor with its gradient accumulator.
type Param struct {
	Val  []float64
	Grad []float64
}

// newParam allocates a parameter of length n.
func newParam(n int) *Param {
	return &Param{Val: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// glorotInit fills vals with Glorot-uniform noise for a layer with the
// given fan-in and fan-out.
func glorotInit(vals []float64, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range vals {
		vals[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Adam is the Adam optimizer over a set of parameters.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	params []*Param
	m, v   [][]float64
	step   int
}

// NewAdam creates an optimizer for the given parameters. lr <= 0 selects
// 1e-3.
func NewAdam(params []*Param, lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-3
	}
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Val))
		a.v[i] = make([]float64, len(p.Val))
	}
	return a
}

// Step applies one Adam update using the accumulated gradients scaled by
// 1/batchSize, then clears them.
func (a *Adam) Step(batchSize int) {
	a.step++
	corr1 := 1 - math.Pow(a.Beta1, float64(a.step))
	corr2 := 1 - math.Pow(a.Beta2, float64(a.step))
	scale := 1 / float64(batchSize)
	for i, p := range a.params {
		for j := range p.Val {
			g := p.Grad[j] * scale
			a.m[i][j] = a.Beta1*a.m[i][j] + (1-a.Beta1)*g
			a.v[i][j] = a.Beta2*a.v[i][j] + (1-a.Beta2)*g*g
			p.Val[j] -= a.LR * (a.m[i][j] / corr1) / (math.Sqrt(a.v[i][j]/corr2) + a.Epsilon)
		}
		p.ZeroGrad()
	}
}

// matrix allocates a channels × time activation.
func matrix(channels, time int) [][]float64 {
	out := make([][]float64, channels)
	for c := range out {
		out[c] = make([]float64, time)
	}
	return out
}

// grow returns s resized to length n. It keeps the backing array when
// that is large enough and copies the old entries when not, so a grown
// matrix keeps its rows; float contents are stale and callers overwrite
// every entry.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]E, n-cap(s))...)
	}
	return s[:n]
}

// scratch returns a rows × cols matrix: the layer-owned *buf resized and
// reused when train is set, with stale contents, or a fresh zeroed one.
func scratch[E any](buf *[][]E, train bool, rows, cols int) [][]E {
	if !train {
		out := make([][]E, rows)
		for r := range out {
			out[r] = make([]E, cols)
		}
		return out
	}
	m := grow(*buf, rows)
	for r := range m {
		m[r] = grow(m[r], cols)
	}
	*buf = m
	return m
}

// scratchVec is scratch for a vector.
func scratchVec(buf *[]float64, train bool, n int) []float64 {
	if !train {
		return make([]float64, n)
	}
	*buf = grow(*buf, n)
	return *buf
}

// lanes returns the rows a four-row pass starting at row r handles: r to
// r+3, with any past the last row n−1 clamped to it. A short last pass
// then recomputes row n−1 from the same inputs and stores the same value,
// so it needs no loop of its own.
func lanes(r, n int) (int, int, int, int) {
	return r, min(r+1, n-1), min(r+2, n-1), min(r+3, n-1)
}

// addRowSums adds the first T entries of each row, in ascending order, to
// acc[r]. Four rows run side by side, so their sums do not wait on one
// another; each row's sum is the one a loop over that row alone makes.
func addRowSums(acc []float64, rows [][]float64, T int) {
	for r := 0; r < len(rows); r += 4 {
		r0, r1, r2, r3 := lanes(r, len(rows))
		x0 := rows[r0][:T]
		x1, x2, x3 := rows[r1][:len(x0)], rows[r2][:len(x0)], rows[r3][:len(x0)]
		s0, s1, s2, s3 := acc[r0], acc[r1], acc[r2], acc[r3]
		for t, v := range x0 {
			s0 += v
			s1 += x1[t]
			s2 += x2[t]
			s3 += x3[t]
		}
		acc[r0], acc[r1], acc[r2], acc[r3] = s0, s1, s2, s3
	}
}

// clearRows zeroes every row of m.
func clearRows(m [][]float64) {
	for _, row := range m {
		clear(row)
	}
}
