package neural

import (
	"math/rand"

	"github.com/goetsc/goetsc/internal/linalg"
)

// Conv1D is a 1-D convolution with "same" zero padding: output length
// equals input length regardless of kernel size.
type Conv1D struct {
	InChannels, OutChannels, Kernel int

	weight *Param // [out][in][k] flattened
	bias   *Param // [out]

	inCache [][]float64
	out, dx [][]float64 // training-path buffers
	flipped []float64   // [in][out][K-1-k]: the input-gradient taps
	pairs   []tapPair   // weight-gradient lanes, fixed per layer
	rows    [][]float64 // each lane pair's interior inputs, per call
}

// NewConv1D creates a Glorot-initialized convolution layer.
func NewConv1D(inChannels, outChannels, kernel int, rng *rand.Rand) *Conv1D {
	c := &Conv1D{InChannels: inChannels, OutChannels: outChannels, Kernel: kernel}
	c.weight = newParam(outChannels * inChannels * kernel)
	glorotInit(c.weight.Val, inChannels*kernel, outChannels*kernel, rng)
	c.bias = newParam(outChannels)
	return c
}

func (c *Conv1D) w(out, in, k int) int { return (out*c.InChannels+in)*c.Kernel + k }

// interior returns the outputs [lo, hi) of a length-T series whose every
// tap reads a point inside it: all of them but the first left and the
// last K−1−left, where left is the taps' offset before the output. It is
// empty when T < K.
func interior(T, K, left int) (lo, hi int) {
	lo = min(left, T)
	return lo, max(T-(K-1-left), lo)
}

// edgeSum is output t of a correlation whose tap k reads xs[c][t+k−left]:
// b, then every tap that reads a point inside [0, T), in (c, k) order.
// It is the per-output form for the edge outputs, where a zero-padded
// tap would not be exact for a non-finite weight.
func edgeSum(b float64, ws []float64, xs [][]float64, t, T, K, left int) float64 {
	kLo, kHi := max(left-t, 0), min(T+left-t, K)
	sum := b
	for c, x := range xs {
		src := x[t+kLo-left : t+kHi-left]
		for i, w := range ws[c*K+kLo : c*K+kHi] {
			sum += w * src[i]
		}
	}
	return sum
}

// Forward computes the convolution of x ([in][time]). Every output
// starts at its bias and adds its in-range taps in (in, k) order: the
// interior through linalg.ConvValid, the edges through edgeSum.
func (c *Conv1D) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		c.inCache = x
	}
	T, K := len(x[0]), c.Kernel
	left := (K - 1) / 2
	xs := x[:c.InChannels]
	lo, hi := interior(T, K, left)
	y := scratch(&c.out, train, c.OutChannels, T)
	for o, row := range y {
		ws := c.weight.Val[c.w(o, 0, 0):c.w(o+1, 0, 0)]
		b := c.bias.Val[o]
		linalg.ConvValid(row[lo:hi], b, ws, xs)
		for t := 0; t < lo; t++ {
			row[t] = edgeSum(b, ws, xs, t, T, K, left)
		}
		for t := hi; t < T; t++ {
			row[t] = edgeSum(b, ws, xs, t, T, K, left)
		}
	}
	return y
}

// Backward accumulates parameter gradients and returns dL/dx.
//
// Each output row's bias gradient is one sum over t, and each weight tap
// one dot product over t in ascending order (see paramGrads). dx[in][s]
// starts at +0 and adds g[o][t]·w[o][in][k] over o ascending, then k
// descending. That is a correlation of the gradient rows with each
// input's taps reversed, so it runs through the same kernels as Forward.
//
// The per-tap reference skips g == 0 terms; these loops do not, and for
// finite weights and inputs that changes no bit: a skipped term is ±0,
// and a sum that starts at +0 never becomes −0, so adding ±0 leaves it as
// it was. For a non-finite weight or input, 0·x is NaN, but in MLSTM-FCN,
// this layer's only user, that case never reaches a g == 0: the
// non-finite operand makes its output rows non-finite (a non-finite input
// every row), and the ChannelNorm after each convolution then returns an
// all-NaN gradient for those rows.
func (c *Conv1D) Backward(grad [][]float64) [][]float64 {
	c.paramGrads(grad)
	x := c.inCache
	T, K, in, out := len(x[0]), c.Kernel, c.InChannels, c.OutChannels
	// The reversed taps read g[o][s+j−(K−1−left)] for j = K−1−k.
	left := K - 1 - (K-1)/2
	c.flipped = grow(c.flipped, in*out*K)
	for i := 0; i < in; i++ {
		for o := 0; o < out; o++ {
			src := c.weight.Val[c.w(o, i, 0):c.w(o, i, K)]
			dst := c.flipped[(i*out+o)*K : (i*out+o+1)*K]
			for j := range dst {
				dst[j] = src[K-1-j]
			}
		}
	}
	gs := grad[:out]
	lo, hi := interior(T, K, left)
	dx := scratch(&c.dx, true, in, T)
	for i, row := range dx {
		ws := c.flipped[i*out*K : (i+1)*out*K]
		linalg.ConvValid(row[lo:hi], 0, ws, gs)
		for s := 0; s < lo; s++ {
			row[s] = edgeSum(0, ws, gs, s, T, K, left)
		}
		for s := hi; s < T; s++ {
			row[s] = edgeSum(0, ws, gs, s, T, K, left)
		}
	}
	return dx
}

// BackwardParams is Backward for a layer whose input gradient nobody
// reads, such as the first layer of a network: it accumulates the same
// weight and bias gradients and computes no dL/dx.
func (c *Conv1D) BackwardParams(grad [][]float64) { c.paramGrads(grad) }

// tapPair is one weight-gradient lane pair: taps k and k+1 of input
// channel in. own is false for the pair that ends an odd kernel, whose
// first tap another pair already owns.
type tapPair struct {
	in, k int
	own   bool
}

// tapPairs lists the lane pairs covering every tap of every input
// channel. An odd kernel's last pair overlaps the one before it; a
// one-tap kernel has none.
func tapPairs(in, K int) []tapPair {
	var out []tapPair
	for i := 0; i < in; i++ {
		for k := 0; k+1 < K; k += 2 {
			out = append(out, tapPair{in: i, k: k, own: true})
		}
		if K%2 == 1 && K > 1 {
			out = append(out, tapPair{in: i, k: K - 2})
		}
	}
	return out
}

// paramGrads adds each output row's gradient sum to its bias gradient
// and Σ_t g[o][t]·x[in][t+k−left] to each weight tap's gradient, over
// the tap's in-range t in ascending order: the low-edge terms, then the
// interior ones for eight lane pairs at a time (linalg.LagDot8), then
// the high-edge ones.
func (c *Conv1D) paramGrads(grad [][]float64) {
	x := c.inCache
	T, K, in := len(x[0]), c.Kernel, c.InChannels
	left := (K - 1) / 2
	lo, hi := interior(T, K, left)
	if c.pairs == nil {
		c.pairs = tapPairs(in, K)
	}
	c.biasGrads(grad, T)
	tiled := hi > lo && K > 1
	if tiled {
		c.tileRows(x, hi-lo)
	}
	for o := 0; o < c.OutChannels; o++ {
		gRow := grad[o][:T]
		gs := c.weight.Grad[c.w(o, 0, 0):c.w(o+1, 0, 0)]
		// Tap k reads x[t+k−left], inside the series for t in
		// [max(left−k, 0), min(T+left−k, T)).
		for k := 0; k < K; k++ {
			if a, e := max(left-k, 0), min(lo, T+left-k); a < e {
				for i := 0; i < in; i++ {
					gs[i*K+k] = dotAcc(gs[i*K+k], gRow[a:e], x[i][a+k-left:])
				}
			}
		}
		switch {
		case tiled:
			c.lagTiles(gs, gRow[lo:hi])
		case hi > lo:
			for i := 0; i < in; i++ {
				gs[i] = dotAcc(gs[i], gRow[lo:hi], x[i][lo:])
			}
		}
		for k := 0; k < K; k++ {
			if s, b := max(hi, left-k), min(T+left-k, T); s < b {
				for i := 0; i < in; i++ {
					gs[i*K+k] = dotAcc(gs[i*K+k], gRow[s:b], x[i][s+k-left:])
				}
			}
		}
	}
}

// biasGrads adds each output row's gradient sum, in ascending t, to its
// bias gradient. Four rows run side by side, so their sums do not wait
// on one another.
func (c *Conv1D) biasGrads(grad [][]float64, T int) {
	bg := c.bias.Grad
	o := 0
	for ; o+4 <= c.OutChannels; o += 4 {
		g0 := grad[o][:T]
		g1, g2, g3 := grad[o+1][:len(g0)], grad[o+2][:len(g0)], grad[o+3][:len(g0)]
		b0, b1, b2, b3 := bg[o], bg[o+1], bg[o+2], bg[o+3]
		for t, g := range g0 {
			b0 += g
			b1 += g1[t]
			b2 += g2[t]
			b3 += g3[t]
		}
		bg[o], bg[o+1], bg[o+2], bg[o+3] = b0, b1, b2, b3
	}
	for ; o < c.OutChannels; o++ {
		b := bg[o]
		for _, g := range grad[o][:T] {
			b += g
		}
		bg[o] = b
	}
}

// tileRows points each weight-gradient lane pair at the n+1 inputs its
// interior terms read, x[in][k:k+n+1], padding the list to whole tiles
// of eight with copies of the first.
func (c *Conv1D) tileRows(x [][]float64, n int) {
	c.rows = grow(c.rows, (len(c.pairs)+7)/8*8)
	for j := range c.rows {
		p := c.pairs[0]
		if j < len(c.pairs) {
			p = c.pairs[j]
		}
		c.rows[j] = x[p.in][p.k : p.k+n+1]
	}
}

// lagTiles adds the interior terms g[t]·x[in][t+k] (t from 0, the first
// interior output) to every tap gradient gs[in·K+k], eight lane pairs per
// linalg.LagDot8 call over the rows tileRows set. A short last tile's
// padding lanes are summed and dropped.
func (c *Conv1D) lagTiles(gs, g []float64) {
	K := c.Kernel
	var acc [16]float64
	for start := 0; start < len(c.pairs); start += 8 {
		tile := c.pairs[start:min(start+8, len(c.pairs))]
		for i, p := range tile {
			acc[2*i], acc[2*i+1] = gs[p.in*K+p.k], gs[p.in*K+p.k+1]
		}
		linalg.LagDot8(&acc, g, (*[8][]float64)(c.rows[start:start+8]))
		for i, p := range tile {
			if p.own {
				gs[p.in*K+p.k] = acc[2*i]
			}
			gs[p.in*K+p.k+1] = acc[2*i+1]
		}
	}
}

// dotAcc returns acc + Σ g[t]·x[t], added in ascending t.
func dotAcc(acc float64, g, x []float64) float64 {
	x = x[:len(g)]
	for t, gv := range g {
		acc += gv * x[t]
	}
	return acc
}

// Params returns the learnable parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.weight, c.bias} }
