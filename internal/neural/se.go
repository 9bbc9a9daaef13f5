package neural

import "math/rand"

// SqueezeExcite is the channel-attention block of Hu et al. (CVPR 2018)
// used by MLSTM-FCN: global average pooling followed by a bottleneck MLP
// with a sigmoid gate that rescales each channel.
type SqueezeExcite struct {
	Channels int

	fc1, fc2 *Dense

	// caches
	x     [][]float64
	gate  []float64
	hid   []float64
	preS  []float64
	timeN int

	// training-path buffers
	out, dx                 [][]float64
	squeeze, dPreGate, dPre []float64
}

// NewSqueezeExcite creates a block with the given reduction ratio
// (bottleneck width = channels/ratio, at least 1).
func NewSqueezeExcite(channels, ratio int, rng *rand.Rand) *SqueezeExcite {
	mid := channels / ratio
	if mid < 1 {
		mid = 1
	}
	return &SqueezeExcite{
		Channels: channels,
		fc1:      NewDense(channels, mid, rng),
		fc2:      NewDense(mid, channels, rng),
	}
}

// Forward rescales channels by the learned gate.
func (s *SqueezeExcite) Forward(x [][]float64, train bool) [][]float64 {
	T := len(x[0])
	squeeze := scratchVec(&s.squeeze, train, s.Channels)
	clear(squeeze)
	addRowSums(squeeze, x, T)
	for c := range squeeze {
		squeeze[c] /= float64(T)
	}
	pre := s.fc1.ForwardVec(squeeze, train)
	hid := scratchVec(&s.hid, train, len(pre))
	for i, v := range pre {
		if v > 0 {
			hid[i] = v
		} else {
			hid[i] = 0
		}
	}
	preGate := s.fc2.ForwardVec(hid, train)
	gate := scratchVec(&s.gate, train, len(preGate))
	for i, v := range preGate {
		gate[i] = sigmoid(v)
	}
	y := scratch(&s.out, train, s.Channels, T)
	for c := range x {
		g := gate[c]
		for t, v := range x[c] {
			y[c][t] = v * g
		}
	}
	if train {
		s.x = x
		s.gate = gate
		s.hid = hid
		s.preS = pre
		s.timeN = T
	}
	return y
}

// Backward propagates through the gate and both dense layers.
func (s *SqueezeExcite) Backward(grad [][]float64) [][]float64 {
	T := s.timeN
	dx := scratch(&s.dx, true, s.Channels, T)
	dPreGate := scratchVec(&s.dPreGate, true, s.Channels)
	// dGate[c] = Σ_t dy·x, four channels side by side.
	for c := 0; c < s.Channels; c += 4 {
		c0, c1, c2, c3 := lanes(c, s.Channels)
		g0 := grad[c0][:T]
		g1, g2, g3 := grad[c1][:len(g0)], grad[c2][:len(g0)], grad[c3][:len(g0)]
		x0, x1, x2, x3 := s.x[c0][:len(g0)], s.x[c1][:len(g0)], s.x[c2][:len(g0)], s.x[c3][:len(g0)]
		var d0, d1, d2, d3 float64
		for t, dy := range g0 {
			d0 += dy * x0[t]
			d1 += g1[t] * x1[t]
			d2 += g2[t] * x2[t]
			d3 += g3[t] * x3[t]
		}
		dPreGate[c0], dPreGate[c1], dPreGate[c2], dPreGate[c3] = d0, d1, d2, d3
	}
	for c := 0; c < s.Channels; c++ {
		g := s.gate[c]
		dxc := dx[c][:T]
		for t, dy := range grad[c][:T] {
			dxc[t] = dy * g
		}
		// Through the sigmoid.
		dPreGate[c] = dPreGate[c] * g * (1 - g)
	}
	dHid := s.fc2.BackwardVec(dPreGate)
	// Through the bottleneck ReLU.
	dPre := scratchVec(&s.dPre, true, len(dHid))
	for i := range dHid {
		if s.preS[i] > 0 {
			dPre[i] = dHid[i]
		} else {
			dPre[i] = 0
		}
	}
	dSqueeze := s.fc1.BackwardVec(dPre)
	// Through the global average pool.
	for c := 0; c < s.Channels; c++ {
		share := dSqueeze[c] / float64(T)
		dxc := dx[c][:T]
		for t := range dxc {
			dxc[t] += share
		}
	}
	return dx
}

// Params returns the learnable parameters of both dense layers.
func (s *SqueezeExcite) Params() []*Param {
	return append(s.fc1.Params(), s.fc2.Params()...)
}
