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

	out, dx [][]float64 // training-path buffers
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
	}
	for c := 0; c < n.Channels; c++ {
		var mean, variance float64
		if train {
			var sum, ss float64
			for _, v := range x[c] {
				sum += v
				ss += v * v
			}
			mean = sum / float64(T)
			variance = ss/float64(T) - mean*mean
			if variance < 0 {
				variance = 0
			}
			n.runMean[c] = n.Momentum*n.runMean[c] + (1-n.Momentum)*mean
			n.runVar[c] = n.Momentum*n.runVar[c] + (1-n.Momentum)*variance
		} else {
			mean, variance = n.runMean[c], n.runVar[c]
		}
		invStd := 1 / math.Sqrt(variance+n.Eps)
		g, b := n.gamma.Val[c], n.beta.Val[c]
		var xHat []float64
		if train {
			xHat = n.xHat[c][:T]
			n.invStd[c] = invStd
		}
		yc := y[c][:T]
		for t, v := range x[c][:T] {
			xh := (v - mean) * invStd
			if train {
				xHat[t] = xh
			}
			yc[t] = g*xh + b
		}
	}
	return y
}

// Backward propagates gradients through the normalization.
func (n *ChannelNorm) Backward(grad [][]float64) [][]float64 {
	T := n.timePoints
	dx := scratch(&n.dx, true, n.Channels, T)
	for c := 0; c < n.Channels; c++ {
		gc, xHat, dxc := grad[c][:T], n.xHat[c][:T], dx[c][:T]
		dGamma, dBeta := n.gamma.Grad[c], n.beta.Grad[c]
		var sumDy, sumDyXhat float64
		for t, dy := range gc {
			p := dy * xHat[t]
			dGamma += p
			dBeta += dy
			sumDy += dy
			sumDyXhat += p
		}
		n.gamma.Grad[c], n.beta.Grad[c] = dGamma, dBeta
		// dL/dx for normalization over the time axis:
		// γ·invStd · (dy − Σdy/T − x̂·Σ(dy·x̂)/T).
		scale := n.gamma.Val[c] * n.invStd[c]
		meanDy := sumDy / float64(T)
		for t, dy := range gc {
			dxc[t] = scale * (dy - meanDy - xHat[t]*sumDyXhat/float64(T))
		}
	}
	return dx
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
