package neural

import "math"

// ChannelNorm normalizes each channel over the time axis with learned scale
// and shift. It plays the role of MLSTM-FCN's batch normalization in this
// one-sample-at-a-time training regime (an instance-normalization variant;
// running statistics are kept for inference).
type ChannelNorm struct {
	Channels int
	Momentum float64
	Eps      float64

	gamma, beta *Param

	runMean, runVar []float64

	// caches for backward
	xHat       [][]float64
	invStd     []float64
	timePoints int

	out, dx       [][]float64 // training-path buffers
	sums, squares []float64   // Forward's per-channel Σx and Σx²
}

// NewChannelNorm creates a norm layer with unit scale and zero shift.
func NewChannelNorm(channels int) *ChannelNorm {
	n := &ChannelNorm{Channels: channels, Momentum: 0.9, Eps: 1e-5}
	n.gamma = newParam(channels)
	for i := range n.gamma.Val {
		n.gamma.Val[i] = 1
	}
	n.beta = newParam(channels)
	n.runMean = make([]float64, channels)
	n.runVar = make([]float64, channels)
	for i := range n.runVar {
		n.runVar[i] = 1
	}
	return n
}

// Forward normalizes x ([channels][time]). In training mode statistics are
// computed from x and folded into the running averages; in inference mode
// the running averages are used.
func (n *ChannelNorm) Forward(x [][]float64, train bool) [][]float64 {
	T := len(x[0])
	y := scratch(&n.out, train, n.Channels, T)
	if train {
		scratch(&n.xHat, true, n.Channels, T)
		n.invStd = grow(n.invStd, n.Channels)
		n.timePoints = T
		n.sums, n.squares = grow(n.sums, n.Channels), grow(n.squares, n.Channels)
		sumsAndSquares(n.sums, n.squares, x[:n.Channels], T)
	}
	for c := 0; c < n.Channels; c++ {
		mean, variance := n.runMean[c], n.runVar[c]
		if train {
			mean = n.sums[c] / float64(T)
			variance = n.squares[c]/float64(T) - mean*mean
			if variance < 0 {
				variance = 0
			}
			n.runMean[c] = n.Momentum*n.runMean[c] + (1-n.Momentum)*mean
			n.runVar[c] = n.Momentum*n.runVar[c] + (1-n.Momentum)*variance
		}
		invStd := 1 / math.Sqrt(variance+n.Eps)
		g, b := n.gamma.Val[c], n.beta.Val[c]
		xc, yc := x[c][:T], y[c][:T]
		if !train {
			for t, v := range xc {
				yc[t] = g*((v-mean)*invStd) + b
			}
			continue
		}
		n.invStd[c] = invStd
		xHat := n.xHat[c][:T]
		for t, v := range xc {
			xh := (v - mean) * invStd
			xHat[t] = xh
			yc[t] = g*xh + b
		}
	}
	return y
}

// sumsAndSquares sets sum[r] and ss[r] to the ascending sums of the first
// T entries of rows[r] and of their squares. Four rows run side by side.
func sumsAndSquares(sum, ss []float64, rows [][]float64, T int) {
	for r := 0; r < len(rows); r += 4 {
		r0, r1, r2, r3 := lanes(r, len(rows))
		x0 := rows[r0][:T]
		x1, x2, x3 := rows[r1][:len(x0)], rows[r2][:len(x0)], rows[r3][:len(x0)]
		var s0, s1, s2, s3, q0, q1, q2, q3 float64
		for t, v0 := range x0 {
			v1, v2, v3 := x1[t], x2[t], x3[t]
			s0 += v0
			q0 += v0 * v0
			s1 += v1
			q1 += v1 * v1
			s2 += v2
			q2 += v2 * v2
			s3 += v3
			q3 += v3 * v3
		}
		sum[r0], sum[r1], sum[r2], sum[r3] = s0, s1, s2, s3
		ss[r0], ss[r1], ss[r2], ss[r3] = q0, q1, q2, q3
	}
}

// Backward propagates gradients through the normalization. Two channels
// run side by side, each with its own four sums over t.
func (n *ChannelNorm) Backward(grad [][]float64) [][]float64 {
	T := n.timePoints
	dx := scratch(&n.dx, true, n.Channels, T)
	dGamma, dBeta := n.gamma.Grad, n.beta.Grad
	for c0 := 0; c0 < n.Channels; c0 += 2 {
		c1 := min(c0+1, n.Channels-1) // c0 again for an odd last channel
		g0, h0 := grad[c0][:T], n.xHat[c0][:T]
		g1, h1 := grad[c1][:len(g0)], n.xHat[c1][:len(g0)]
		h0 = h0[:len(g0)]
		dg0, db0, dg1, db1 := dGamma[c0], dBeta[c0], dGamma[c1], dBeta[c1]
		var s0, sx0, s1, sx1 float64
		for t, dy0 := range g0 {
			dy1 := g1[t]
			p0, p1 := dy0*h0[t], dy1*h1[t]
			dg0 += p0
			db0 += dy0
			s0 += dy0
			sx0 += p0
			dg1 += p1
			db1 += dy1
			s1 += dy1
			sx1 += p1
		}
		dGamma[c0], dBeta[c0], dGamma[c1], dBeta[c1] = dg0, db0, dg1, db1
		n.inputGrad(dx[c0][:T], g0, h0, c0, s0, sx0)
		n.inputGrad(dx[c1][:T], g1, h1, c1, s1, sx1)
	}
	return dx
}

// inputGrad writes dL/dx for channel c, normalized over the time axis:
// γ·invStd · (dy − Σdy/T − x̂·Σ(dy·x̂)/T).
func (n *ChannelNorm) inputGrad(dx, grad, xHat []float64, c int, sumDy, sumDyXhat float64) {
	T := float64(len(grad))
	scale := n.gamma.Val[c] * n.invStd[c]
	meanDy := sumDy / T
	dx, xHat = dx[:len(grad)], xHat[:len(grad)]
	for t, dy := range grad {
		dx[t] = scale * (dy - meanDy - xHat[t]*sumDyXhat/T)
	}
}

// Params returns the learnable scale and shift.
func (n *ChannelNorm) Params() []*Param { return []*Param{n.gamma, n.beta} }

// RunningStats returns copies of the inference-time running mean and
// variance, so a trained layer can be serialized.
func (n *ChannelNorm) RunningStats() (mean, variance []float64) {
	return append([]float64(nil), n.runMean...), append([]float64(nil), n.runVar...)
}

// SetRunningStats installs previously captured running statistics,
// restoring a deserialized layer's inference behaviour.
func (n *ChannelNorm) SetRunningStats(mean, variance []float64) {
	copy(n.runMean, mean)
	copy(n.runVar, variance)
}
