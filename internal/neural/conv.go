package neural

import "math/rand"

// Conv1D is a 1-D convolution with "same" zero padding: output length
// equals input length regardless of kernel size.
type Conv1D struct {
	InChannels, OutChannels, Kernel int

	weight *Param // [out][in][k] flattened
	bias   *Param // [out]

	inCache [][]float64
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
	y := matrix(c.OutChannels, T)
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
				dst := row[tLo:tHi]
				for t, v := range src {
					dst[t] += w * v
				}
			}
		}
	}
	return y
}

// Backward accumulates parameter gradients and returns dL/dx. The loop
// stays o → t outermost so each dx[in][src] adds its contributions in
// ascending t; per t only the valid tap range [kLo, kHi) is visited.
func (c *Conv1D) Backward(grad [][]float64) [][]float64 {
	x := c.inCache
	T := len(x[0])
	left := (c.Kernel - 1) / 2
	dx := matrix(c.InChannels, T)
	for o := 0; o < c.OutChannels; o++ {
		gRow := grad[o]
		for t, g := range gRow {
			if g == 0 {
				continue
			}
			c.bias.Grad[o] += g
			// Valid k satisfy 0 <= t+k-left < T.
			kLo, kHi := max(left-t, 0), min(T+left-t, c.Kernel)
			sLo, sHi := t+kLo-left, t+kHi-left
			for in := 0; in < c.InChannels; in++ {
				xs := x[in][sLo:sHi]
				ds := dx[in][sLo:sHi]
				ws := c.weight.Val[c.w(o, in, kLo):c.w(o, in, kHi)]
				gs := c.weight.Grad[c.w(o, in, kLo):c.w(o, in, kHi)]
				ws, gs, ds = ws[:len(xs)], gs[:len(xs)], ds[:len(xs)]
				for j, xv := range xs {
					gs[j] += g * xv
					ds[j] += g * ws[j]
				}
			}
		}
	}
	return dx
}

// Params returns the learnable parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.weight, c.bias} }
