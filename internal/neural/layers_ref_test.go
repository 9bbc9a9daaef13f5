package neural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold ReLU, ChannelNorm, SqueezeExcite and
// GlobalAvgPool to per-channel, per-element reference loops bit for bit,
// as TestConv1DMatchesReferenceBits does for Conv1D. Each runs several
// successive calls on one layer with the series length changing between
// them, at odd channel counts, over inputs and gradients holding ±0, NaN
// and ±Inf, in both train modes where a layer has them.

// layerChannels are odd, so a loop that handles channels in groups of
// two or four also runs its leftover path.
var layerChannels = []int{1, 3, 5, 7}

// layerLengths are the series lengths of the successive calls.
var layerLengths = []int{17, 6, 1, 23}

// specialKinds plant values in an input or gradient matrix.
var specialKinds = []struct {
	name  string
	plant func(m [][]float64)
}{
	{"finite", func([][]float64) {}},
	// Exact +0 and −0 between dense entries, every channel.
	{"signed zeros", func(m [][]float64) {
		for _, row := range m {
			for i := range row {
				switch i % 3 {
				case 0:
					row[i] = 0
				case 1:
					row[i] = math.Copysign(0, -1)
				}
			}
		}
	}},
	// NaN, +Inf and −Inf in different channels; the middle channels of
	// a wide matrix stay finite.
	{"non-finite", func(m [][]float64) {
		m[0][len(m[0])/2] = math.NaN()
		m[len(m)-1][0] = math.Inf(1)
		if len(m) > 2 {
			m[1][len(m[1])-1] = math.Inf(-1)
		}
	}},
}

// requireSameBits compares rows bit for bit, counting any two NaNs as
// equal: which payload survives when two NaNs meet is not fixed for Go's
// scalar code either (a -race build of Dense picks another one).
func requireSameBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for c := range want {
		same := len(got[c]) == len(want[c])
		for i := 0; same && i < len(want[c]); i++ {
			g, w := got[c][i], want[c][i]
			same = math.Float64bits(g) == math.Float64bits(w) || (math.IsNaN(g) && math.IsNaN(w))
		}
		if !same {
			t.Fatalf("%s row %d:\n got  %v\n want %v", what, c, got[c], want[c])
		}
	}
}

// forEachLayerCase runs body for every channel count and special kind.
func forEachLayerCase(t *testing.T, body func(t *testing.T, rng *rand.Rand, channels int, plant func([][]float64))) {
	for _, channels := range layerChannels {
		for _, kind := range specialKinds {
			t.Run(fmt.Sprintf("c=%d/%s", channels, kind.name), func(t *testing.T) {
				body(t, rand.New(rand.NewSource(int64(100+channels))), channels, kind.plant)
			})
		}
	}
}

// refReLU is max(0, v) with the comparison v > 0: −0 and NaN give +0.
func refReLU(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

func TestReLUMatchesReferenceBits(t *testing.T) {
	forEachLayerCase(t, func(t *testing.T, rng *rand.Rand, channels int, plant func([][]float64)) {
		layer := &ReLU{}
		for call, T := range layerLengths {
			x := randMatrix(rng, channels, T)
			plant(x)
			want := matrix(channels, T)
			for c := range x {
				for i, v := range x[c] {
					want[c][i] = refReLU(v)
				}
			}
			requireSameBits(t, fmt.Sprintf("call %d inference", call), layer.Forward(x, false), want)
			requireSameBits(t, fmt.Sprintf("call %d train", call), layer.Forward(x, true), want)
			grad := randMatrix(rng, channels, T)
			plant(grad)
			wantDx := matrix(channels, T)
			for c := range x {
				for i, v := range x[c] {
					if v > 0 {
						wantDx[c][i] = grad[c][i]
					}
				}
			}
			requireSameBits(t, fmt.Sprintf("call %d dx", call), layer.Backward(grad), wantDx)
		}
	})
}

// refNorm is ChannelNorm's per-channel arithmetic on its own copies of
// the parameters, running statistics and gradient accumulators.
type refNorm struct {
	gamma, beta, runMean, runVar []float64
	dGamma, dBeta                []float64
	mom, eps                     float64
	xHat                         [][]float64
	invStd                       []float64
}

func newRefNorm(n *ChannelNorm) *refNorm {
	mean, variance := n.RunningStats()
	return &refNorm{
		gamma: append([]float64(nil), n.gamma.Val...), beta: append([]float64(nil), n.beta.Val...),
		runMean: mean, runVar: variance,
		dGamma: append([]float64(nil), n.gamma.Grad...), dBeta: append([]float64(nil), n.beta.Grad...),
		mom: n.Momentum, eps: n.Eps,
	}
}

func (r *refNorm) forward(x [][]float64, train bool) [][]float64 {
	T := len(x[0])
	y := matrix(len(x), T)
	if train {
		r.xHat, r.invStd = matrix(len(x), T), make([]float64, len(x))
	}
	for c := range x {
		mean, variance := r.runMean[c], r.runVar[c]
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
			r.runMean[c] = r.mom*r.runMean[c] + (1-r.mom)*mean
			r.runVar[c] = r.mom*r.runVar[c] + (1-r.mom)*variance
		}
		invStd := 1 / math.Sqrt(variance+r.eps)
		for i, v := range x[c] {
			xh := (v - mean) * invStd
			if train {
				r.xHat[c][i] = xh
				r.invStd[c] = invStd
			}
			y[c][i] = r.gamma[c]*xh + r.beta[c]
		}
	}
	return y
}

func (r *refNorm) backward(grad [][]float64) [][]float64 {
	T := len(r.xHat[0])
	dx := matrix(len(grad), T)
	for c := range grad {
		var sumDy, sumDyXhat float64
		for i, dy := range grad[c][:T] {
			p := dy * r.xHat[c][i]
			r.dGamma[c] += p
			r.dBeta[c] += dy
			sumDy += dy
			sumDyXhat += p
		}
		scale := r.gamma[c] * r.invStd[c]
		meanDy := sumDy / float64(T)
		for i, dy := range grad[c][:T] {
			dx[c][i] = scale * (dy - meanDy - r.xHat[c][i]*sumDyXhat/float64(T))
		}
	}
	return dx
}

func TestChannelNormMatchesReferenceBits(t *testing.T) {
	forEachLayerCase(t, func(t *testing.T, rng *rand.Rand, channels int, plant func([][]float64)) {
		layer := NewChannelNorm(channels)
		for c := range layer.gamma.Val {
			layer.gamma.Val[c], layer.beta.Val[c] = 1+rng.NormFloat64()/4, rng.NormFloat64()
		}
		ref := newRefNorm(layer)
		for call, T := range layerLengths {
			x := randMatrix(rng, channels, T)
			plant(x)
			// Inference reads the running statistics the previous
			// training calls left.
			requireSameBits(t, fmt.Sprintf("call %d inference", call), layer.Forward(x, false), ref.forward(x, false))
			requireSameBits(t, fmt.Sprintf("call %d train", call), layer.Forward(x, true), ref.forward(x, true))
			mean, variance := layer.RunningStats()
			requireSameBits(t, fmt.Sprintf("call %d running stats", call),
				[][]float64{mean, variance}, [][]float64{ref.runMean, ref.runVar})
			grad := randMatrix(rng, channels, T)
			plant(grad)
			requireSameBits(t, fmt.Sprintf("call %d dx", call), layer.Backward(grad), ref.backward(grad))
			requireSameBits(t, fmt.Sprintf("call %d param grads", call),
				[][]float64{layer.gamma.Grad, layer.beta.Grad}, [][]float64{ref.dGamma, ref.dBeta})
		}
	})
}

// refDense is Dense's arithmetic on copies of its parameters.
type refDense struct {
	in, out      int
	w, b, dw, db []float64
	x            []float64
}

func newRefDense(d *Dense) *refDense {
	return &refDense{
		in: d.In, out: d.Out,
		w: append([]float64(nil), d.weight.Val...), b: append([]float64(nil), d.bias.Val...),
		dw: append([]float64(nil), d.weight.Grad...), db: append([]float64(nil), d.bias.Grad...),
	}
}

func (r *refDense) forward(x []float64) []float64 {
	r.x = x
	y := make([]float64, r.out)
	for o := range y {
		sum := r.b[o]
		for i, v := range x {
			sum += r.w[o*r.in+i] * v
		}
		y[o] = sum
	}
	return y
}

func (r *refDense) backward(grad []float64) []float64 {
	dx := make([]float64, r.in)
	for o, g := range grad {
		if g == 0 {
			continue
		}
		r.db[o] += g
		for i := range dx {
			r.dw[o*r.in+i] += g * r.x[i]
			dx[i] += g * r.w[o*r.in+i]
		}
	}
	return dx
}

// refSE is SqueezeExcite's per-channel arithmetic around two refDense.
type refSE struct {
	fc1, fc2       *refDense
	x              [][]float64
	pre, gate      []float64
	channels, time int
}

func (r *refSE) forward(x [][]float64) [][]float64 {
	T := len(x[0])
	r.x, r.time = x, T
	squeeze := make([]float64, len(x))
	for c := range x {
		var sum float64
		for _, v := range x[c] {
			sum += v
		}
		squeeze[c] = sum / float64(T)
	}
	r.pre = r.fc1.forward(squeeze)
	hid := make([]float64, len(r.pre))
	for i, v := range r.pre {
		hid[i] = refReLU(v)
	}
	preGate := r.fc2.forward(hid)
	r.gate = make([]float64, len(preGate))
	y := matrix(len(x), T)
	for c, v := range preGate {
		r.gate[c] = 1 / (1 + math.Exp(-v))
		for i, xv := range x[c] {
			y[c][i] = xv * r.gate[c]
		}
	}
	return y
}

func (r *refSE) backward(grad [][]float64) [][]float64 {
	T := r.time
	dx := matrix(len(grad), T)
	dPreGate := make([]float64, len(grad))
	for c := range grad {
		g := r.gate[c]
		var dGate float64
		for i := 0; i < T; i++ {
			dy := grad[c][i]
			dx[c][i] = dy * g
			dGate += dy * r.x[c][i]
		}
		dPreGate[c] = dGate * g * (1 - g)
	}
	dHid := r.fc2.backward(dPreGate)
	dPre := make([]float64, len(dHid))
	for i, v := range dHid {
		if r.pre[i] > 0 {
			dPre[i] = v
		}
	}
	dSqueeze := r.fc1.backward(dPre)
	for c := range dx {
		share := dSqueeze[c] / float64(T)
		for i := range dx[c] {
			dx[c][i] += share
		}
	}
	return dx
}

func TestSqueezeExciteMatchesReferenceBits(t *testing.T) {
	forEachLayerCase(t, func(t *testing.T, rng *rand.Rand, channels int, plant func([][]float64)) {
		layer := NewSqueezeExcite(channels, 2, rng)
		for _, p := range layer.Params() {
			for i := range p.Val {
				p.Val[i] = rng.NormFloat64()
			}
		}
		ref := &refSE{fc1: newRefDense(layer.fc1), fc2: newRefDense(layer.fc2)}
		for call, T := range layerLengths {
			x := randMatrix(rng, channels, T)
			plant(x)
			// Inference first: it must leave the training caches alone.
			requireSameBits(t, fmt.Sprintf("call %d inference", call), layer.Forward(x, false), ref.forward(x))
			requireSameBits(t, fmt.Sprintf("call %d train", call), layer.Forward(x, true), ref.forward(x))
			grad := randMatrix(rng, channels, T)
			plant(grad)
			requireSameBits(t, fmt.Sprintf("call %d dx", call), layer.Backward(grad), ref.backward(grad))
			var got, want [][]float64
			for _, p := range layer.Params() {
				got = append(got, p.Grad)
			}
			want = append(want, ref.fc1.dw, ref.fc1.db, ref.fc2.dw, ref.fc2.db)
			requireSameBits(t, fmt.Sprintf("call %d param grads", call), got, want)
		}
	})
}

func TestGlobalAvgPoolMatchesReferenceBits(t *testing.T) {
	forEachLayerCase(t, func(t *testing.T, rng *rand.Rand, channels int, plant func([][]float64)) {
		layer := &GlobalAvgPool{}
		for call, T := range layerLengths {
			x := randMatrix(rng, channels, T)
			plant(x)
			want := make([]float64, channels)
			for c := range x {
				var sum float64
				for _, v := range x[c] {
					sum += v
				}
				want[c] = sum / float64(T)
			}
			requireSameBits(t, fmt.Sprintf("call %d inference", call), [][]float64{layer.Forward(x, false)}, [][]float64{want})
			requireSameBits(t, fmt.Sprintf("call %d train", call), [][]float64{layer.Forward(x, true)}, [][]float64{want})
			grad := make([]float64, channels)
			for c := range grad {
				grad[c] = rng.NormFloat64()
			}
			plant([][]float64{grad})
			wantDx := matrix(channels, T)
			for c := range wantDx {
				for i := range wantDx[c] {
					wantDx[c][i] = grad[c] / float64(T)
				}
			}
			requireSameBits(t, fmt.Sprintf("call %d dx", call), layer.Backward(grad), wantDx)
		}
	})
}
