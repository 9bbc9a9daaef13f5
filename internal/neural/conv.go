package neural

import "math/rand"

// Conv1D is a 1-D convolution with "same" zero padding: output length
// equals input length regardless of kernel size.
type Conv1D struct {
	InChannels, OutChannels, Kernel int

	weight *Param // [out][in][k] flattened
	bias   *Param // [out]

	inCache [][]float64
	out, dx [][]float64 // training-path buffers
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

// Forward computes the convolution of x ([in][time]). Each output row
// starts at its bias and takes one axpy per (in, k) tap over the times
// whose source lies inside the series, so every output still sums bias
// then taps in (in, k) order, as the per-output form does.
func (c *Conv1D) Forward(x [][]float64, train bool) [][]float64 {
	if train {
		c.inCache = x
	}
	T := len(x[0])
	left := (c.Kernel - 1) / 2
	y := scratch(&c.out, train, c.OutChannels, T)
	for o := 0; o < c.OutChannels; o++ {
		row := y[o]
		b := c.bias.Val[o]
		for t := range row {
			row[t] = b
		}
		for in := 0; in < c.InChannels; in++ {
			xin := x[in]
			ws := c.weight.Val[c.w(o, in, 0):c.w(o, in, c.Kernel)]
			for k, w := range ws {
				// Valid t satisfy 0 <= t+k-left < T.
				tLo, tHi := max(left-k, 0), min(T+left-k, T)
				if tLo >= tHi {
					continue
				}
				src := xin[tLo+k-left : tHi+k-left]
				dst := row[tLo:tHi][:len(src)]
				for t, v := range src {
					dst[t] += w * v
				}
			}
		}
	}
	return y
}

// Backward accumulates parameter gradients and returns dL/dx. It runs
// tap-major, o → in → k like Forward, with long loops over t: each output
// row's bias gradient is one sum over t, each weight-gradient tap one dot
// product over t in ascending order, and the input gradient one axpy per
// tap with k descending, so within each o every dx[in][s] still adds its
// terms in ascending t, as the o → t form does. That form skipped g == 0
// terms; these loops do not, and for finite weights and inputs that
// changes no bit: a skipped term is ±0, and a sum that starts at +0 never
// becomes −0, so adding ±0 leaves it as it was. For a non-finite weight
// or input, 0·x is NaN, but in MLSTM-FCN, this layer's only user, that
// case never reaches a g == 0: the non-finite operand makes its output
// rows non-finite (a non-finite input every row), and the ChannelNorm
// after each convolution then returns an all-NaN gradient for those rows.
func (c *Conv1D) Backward(grad [][]float64) [][]float64 {
	x := c.inCache
	T := len(x[0])
	dx := scratch(&c.dx, true, c.InChannels, T)
	clearRows(dx)
	left := (c.Kernel - 1) / 2
	for o := 0; o < c.OutChannels; o++ {
		gRow := grad[o][:T]
		bias := c.bias.Grad[o]
		for _, g := range gRow {
			bias += g
		}
		c.bias.Grad[o] = bias
		for in := 0; in < c.InChannels; in++ {
			xin, din := x[in], dx[in]
			ws := c.weight.Val[c.w(o, in, 0):c.w(o, in, c.Kernel)]
			gs := c.weight.Grad[c.w(o, in, 0):c.w(o, in, c.Kernel)]
			for k := c.Kernel - 1; k >= 0; k-- {
				// Valid t satisfy 0 <= t+k-left < T.
				tLo, tHi := max(left-k, 0), min(T+left-k, T)
				if tLo >= tHi {
					continue
				}
				gs[k] = dotAxpy(gs[k], ws[k], gRow[tLo:tHi], xin[tLo+k-left:tHi+k-left], din[tLo+k-left:tHi+k-left])
			}
		}
	}
	return dx
}

// dotAxpy returns acc + Σ g[t]·x[t], added in ascending t, and adds
// g[t]·w to each dx[t].
func dotAxpy(acc, w float64, g, x, dx []float64) float64 {
	x, dx = x[:len(g)], dx[:len(g)]
	for t, gv := range g {
		acc += gv * x[t]
		dx[t] += gv * w
	}
	return acc
}

// Params returns the learnable parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.weight, c.bias} }
