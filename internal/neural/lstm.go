package neural

import "math/rand"

// LSTM is a standard long short-term memory layer processing a sequence of
// input vectors and returning the final hidden state. Gradients flow via
// full backpropagation through time.
type LSTM struct {
	In, Hidden int

	// Gate order in the stacked weight matrices: input, forget, cell, output.
	wx *Param // [4H][in]
	wh *Param // [4H][H]
	b  *Param // [4H]

	// caches per time step for BPTT
	xs            [][]float64
	hs, cs        [][]float64 // h[0], c[0] are the initial zero states
	gi, gf, gg, o [][]float64

	// BackwardSeq's and BackwardSeqAll's buffers
	gradHs, dxs            [][]float64
	dh, dc, dhPrev, dcPrev []float64
}

// NewLSTM creates an LSTM with Glorot weights and forget-gate bias 1.
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{In: in, Hidden: hidden}
	l.wx = newParam(4 * hidden * in)
	glorotInit(l.wx.Val, in, hidden, rng)
	l.wh = newParam(4 * hidden * hidden)
	glorotInit(l.wh.Val, hidden, hidden, rng)
	l.b = newParam(4 * hidden)
	// Standard trick: bias the forget gate open at initialization.
	for h := 0; h < hidden; h++ {
		l.b.Val[hidden+h] = 1
	}
	return l
}

// ForwardSeq consumes the sequence (steps × in) and returns the final
// hidden state.
func (l *LSTM) ForwardSeq(seq [][]float64, train bool) []float64 {
	hs := l.ForwardSeqAll(seq, train)
	return hs[len(hs)-1]
}

// ForwardSeqAll consumes the sequence and returns every hidden state
// h_1..h_steps (needed by attention pooling).
func (l *LSTM) ForwardSeqAll(seq [][]float64, train bool) [][]float64 {
	H := l.Hidden
	steps := len(seq)
	hs := scratch(&l.hs, train, steps+1, H)
	cs := scratch(&l.cs, train, steps+1, H)
	gi := scratch(&l.gi, train, steps, H)
	gf := scratch(&l.gf, train, steps, H)
	gg := scratch(&l.gg, train, steps, H)
	o := scratch(&l.o, train, steps, H)
	if train {
		l.xs = seq
		clear(hs[0])
		clear(cs[0])
	}
	for t := 0; t < steps; t++ {
		x := seq[t]
		h, c := hs[t], cs[t]
		gi, gf, gg, o := gi[t], gf[t], gg[t], o[t]
		newC, newH := cs[t+1], hs[t+1]
		for j := 0; j < H; j++ {
			zi := l.gatePre(0, j, x, h)
			zf := l.gatePre(1, j, x, h)
			zg := l.gatePre(2, j, x, h)
			zo := l.gatePre(3, j, x, h)
			gi[j] = sigmoid(zi)
			gf[j] = sigmoid(zf)
			gg[j] = tanh(zg)
			o[j] = sigmoid(zo)
			newC[j] = gf[j]*c[j] + gi[j]*gg[j]
			newH[j] = o[j] * tanh(newC[j])
		}
	}
	return hs[1:]
}

// gatePre computes the pre-activation of gate g (0..3) unit j.
func (l *LSTM) gatePre(g, j int, x, h []float64) float64 {
	H := l.Hidden
	row := (g*H + j)
	sum := l.b.Val[row]
	wx := l.wx.Val[row*l.In : (row+1)*l.In]
	for i, v := range x {
		if i >= l.In {
			break
		}
		sum += wx[i] * v
	}
	wh := l.wh.Val[row*H : (row+1)*H]
	for i, v := range h {
		sum += wh[i] * v
	}
	return sum
}

// BackwardSeq backpropagates dL/dh_final through time, accumulating
// parameter gradients, and returns dL/dx per step.
func (l *LSTM) BackwardSeq(gradH []float64) [][]float64 {
	grads := grow(l.gradHs, len(l.xs))
	clear(grads)
	grads[len(grads)-1] = gradH
	l.gradHs = grads
	return l.BackwardSeqAll(grads)
}

// BackwardSeqAll backpropagates per-step gradients dL/dh_t (nil entries
// mean zero) through time, accumulating parameter gradients, and returns
// dL/dx per step.
func (l *LSTM) BackwardSeqAll(gradHs [][]float64) [][]float64 {
	H := l.Hidden
	steps := len(l.xs)
	dh := scratchVec(&l.dh, true, H)
	dc := scratchVec(&l.dc, true, H)
	dhPrev := scratchVec(&l.dhPrev, true, H)
	dcPrev := scratchVec(&l.dcPrev, true, H)
	clear(dh)
	clear(dc)
	if g := gradHs[steps-1]; g != nil {
		copy(dh, g)
	}
	dxs := grow(l.dxs, steps)
	l.dxs = dxs
	for t := steps - 1; t >= 0; t-- {
		x := l.xs[t]
		hPrev := l.hs[t]
		cPrev := l.cs[t]
		cCur := l.cs[t+1]
		gi, gf, gg, o := l.gi[t], l.gf[t], l.gg[t], l.o[t]
		dx := grow(dxs[t], len(x))
		dxs[t] = dx
		clear(dx)
		clear(dhPrev)
		for j := 0; j < H; j++ {
			tc := tanh(cCur[j])
			dO := dh[j] * tc
			dC := dh[j]*o[j]*(1-tc*tc) + dc[j]
			dGi := dC * gg[j]
			dGf := dC * cPrev[j]
			dGg := dC * gi[j]
			dcPrev[j] = dC * gf[j]
			// Through the gate nonlinearities.
			dzi := dGi * gi[j] * (1 - gi[j])
			dzf := dGf * gf[j] * (1 - gf[j])
			dzg := dGg * (1 - gg[j]*gg[j])
			dzo := dO * o[j] * (1 - o[j])
			for g, dz := range [4]float64{dzi, dzf, dzg, dzo} {
				if dz == 0 {
					continue
				}
				row := g*H + j
				l.b.Grad[row] += dz
				wxRow := l.wx.Val[row*l.In : (row+1)*l.In]
				wxGrad := l.wx.Grad[row*l.In : (row+1)*l.In]
				for i := 0; i < l.In && i < len(x); i++ {
					wxGrad[i] += dz * x[i]
					dx[i] += dz * wxRow[i]
				}
				whRow := l.wh.Val[row*H : (row+1)*H]
				whGrad := l.wh.Grad[row*H : (row+1)*H]
				for i := 0; i < H; i++ {
					whGrad[i] += dz * hPrev[i]
					dhPrev[i] += dz * whRow[i]
				}
			}
		}
		dh, dhPrev = dhPrev, dh
		if t > 0 {
			if g := gradHs[t-1]; g != nil {
				for j := range dh {
					dh[j] += g[j]
				}
			}
		}
		dc, dcPrev = dcPrev, dc
	}
	return dxs
}

// Params returns the learnable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }
