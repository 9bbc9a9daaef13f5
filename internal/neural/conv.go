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

// edgeSum4 is output t of four correlations over the same inputs, whose
// tap k of row r reads xs[c][t+k−left] with weight w_r[c·K+k]: b_r, then
// every tap that reads a point inside [0, T), in (c, k) order. The four
// rows run side by side, so their sums do not wait on one another. It is
// the per-output form for the edge outputs, where a zero-padded tap would
// not be exact for a non-finite weight.
func edgeSum4(b0, b1, b2, b3 float64, w0, w1, w2, w3 []float64, xs [][]float64, t, T, K, left int) (float64, float64, float64, float64) {
	kLo, kHi := max(left-t, 0), min(T+left-t, K)
	for c, x := range xs {
		src := x[t+kLo-left : t+kHi-left]
		lo := c*K + kLo
		r0, r1, r2, r3 := w0[lo:][:len(src)], w1[lo:][:len(src)], w2[lo:][:len(src)], w3[lo:][:len(src)]
		for i, v := range src {
			b0 += r0[i] * v
			b1 += r1[i] * v
			b2 += r2[i] * v
			b3 += r3[i] * v
		}
	}
	return b0, b1, b2, b3
}

// edgeRows fills the edge outputs [0, lo) and [hi, T) of every row of y
// through edgeSum4, four rows per pass. Row o's taps are ws[o·n : (o+1)·n]
// for n = len(xs)·K, and its sums start at b[o], or at +0 when b is nil.
func edgeRows(y [][]float64, b, ws []float64, xs [][]float64, T, K, left, lo, hi int) {
	n := len(xs) * K
	for o := 0; o < len(y); o += 4 {
		o0, o1, o2, o3 := lanes(o, len(y))
		var b0, b1, b2, b3 float64
		if b != nil {
			b0, b1, b2, b3 = b[o0], b[o1], b[o2], b[o3]
		}
		w0, w1, w2, w3 := ws[o0*n:][:n], ws[o1*n:][:n], ws[o2*n:][:n], ws[o3*n:][:n]
		y0, y1, y2, y3 := y[o0][:T], y[o1][:T], y[o2][:T], y[o3][:T]
		for _, span := range [2][2]int{{0, lo}, {hi, T}} {
			for t := span[0]; t < span[1]; t++ {
				y0[t], y1[t], y2[t], y3[t] = edgeSum4(b0, b1, b2, b3, w0, w1, w2, w3, xs, t, T, K, left)
			}
		}
	}
}

// Forward computes the convolution of x ([in][time]). Every output
// starts at its bias and adds its in-range taps in (in, k) order: the
// interior through linalg.ConvValid, the edges through edgeRows.
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
		linalg.ConvValid(row[lo:hi], c.bias.Val[o], ws, xs)
	}
	edgeRows(y, c.bias.Val, c.weight.Val, xs, T, K, left, lo, hi)
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
		linalg.ConvValid(row[lo:hi], 0, c.flipped[i*out*K:(i+1)*out*K], gs)
	}
	edgeRows(dx, nil, c.flipped, gs, T, K, left, lo, hi)
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
	addRowSums(c.bias.Grad, grad[:c.OutChannels], T)
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
				tapTerms(gs, gRow[a:e], x[:in], K, k, a+k-left)
			}
		}
		switch {
		case tiled:
			c.lagTiles(gs, gRow[lo:hi])
		case hi > lo:
			tapTerms(gs, gRow[lo:hi], x[:in], K, 0, lo)
		}
		for k := 0; k < K; k++ {
			if s, b := max(hi, left-k), min(T+left-k, T); s < b {
				tapTerms(gs, gRow[s:b], x[:in], K, k, s+k-left)
			}
		}
	}
}

// tapTerms adds Σ_t g[t]·x[in][off+t], in ascending t, to tap k's
// gradient gs[in·K+k] of every input channel. Four channels run side by
// side, so their sums do not wait on one another. Leftover channels run
// one at a time rather than in clamped lanes: a univariate series gives
// the first block a single input channel, which clamping would sum four
// times.
func tapTerms(gs, g []float64, x [][]float64, K, k, off int) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		gs[i*K+k], gs[(i+1)*K+k], gs[(i+2)*K+k], gs[(i+3)*K+k] = dotAcc4(
			gs[i*K+k], gs[(i+1)*K+k], gs[(i+2)*K+k], gs[(i+3)*K+k],
			g, x[i][off:], x[i+1][off:], x[i+2][off:], x[i+3][off:])
	}
	for ; i < len(x); i++ {
		gs[i*K+k] = dotAcc(gs[i*K+k], g, x[i][off:])
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

// dotAcc4 is dotAcc for four rows against one g, side by side.
func dotAcc4(a0, a1, a2, a3 float64, g, x0, x1, x2, x3 []float64) (float64, float64, float64, float64) {
	x0, x1, x2, x3 = x0[:len(g)], x1[:len(g)], x2[:len(g)], x3[:len(g)]
	for t, gv := range g {
		a0 += gv * x0[t]
		a1 += gv * x1[t]
		a2 += gv * x2[t]
		a3 += gv * x3[t]
	}
	return a0, a1, a2, a3
}

// Params returns the learnable parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.weight, c.bias} }
