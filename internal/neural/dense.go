package neural

import "math/rand"

// Dense is a fully-connected layer over flat vectors.
type Dense struct {
	In, Out int

	weight *Param // [out][in] flattened
	bias   *Param

	inCache []float64
	out, dx []float64 // training-path buffers
}

// NewDense creates a Glorot-initialized dense layer.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out}
	d.weight = newParam(in * out)
	glorotInit(d.weight.Val, in, out, rng)
	d.bias = newParam(out)
	return d
}

// ForwardVec computes y = Wx + b.
func (d *Dense) ForwardVec(x []float64, train bool) []float64 {
	if train {
		d.inCache = x
	}
	y := scratchVec(&d.out, train, d.Out)
	for o := 0; o < d.Out; o++ {
		sum := d.bias.Val[o]
		row := d.weight.Val[o*d.In : (o+1)*d.In]
		for i, v := range x {
			sum += row[i] * v
		}
		y[o] = sum
	}
	return y
}

// BackwardVec accumulates parameter gradients and returns dL/dx.
func (d *Dense) BackwardVec(grad []float64) []float64 {
	dx := scratchVec(&d.dx, true, d.In)
	clear(dx)
	for o := 0; o < d.Out; o++ {
		g := grad[o]
		if g == 0 {
			continue
		}
		d.bias.Grad[o] += g
		row := d.weight.Val[o*d.In : (o+1)*d.In]
		gRow := d.weight.Grad[o*d.In : (o+1)*d.In]
		for i := range row {
			gRow[i] += g * d.inCache[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params returns the learnable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// GlobalAvgPool averages each channel over time, producing a flat vector.
type GlobalAvgPool struct {
	timePoints int
	channels   int

	// training-path buffers
	out []float64
	dx  [][]float64
}

// Forward averages [channels][time] to [channels].
func (g *GlobalAvgPool) Forward(x [][]float64, train bool) []float64 {
	if train {
		g.channels = len(x)
		g.timePoints = len(x[0])
	}
	T := len(x[0])
	out := scratchVec(&g.out, train, len(x))
	clear(out)
	addRowSums(out, x, T)
	for c := range out {
		out[c] /= float64(T)
	}
	return out
}

// Backward spreads the gradient uniformly over time.
func (g *GlobalAvgPool) Backward(grad []float64) [][]float64 {
	dx := scratch(&g.dx, true, g.channels, g.timePoints)
	for c := 0; c < g.channels; c++ {
		share := grad[c] / float64(g.timePoints)
		dxc := dx[c][:g.timePoints]
		for t := range dxc {
			dxc[t] = share
		}
	}
	return dx
}
