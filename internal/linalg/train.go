package linalg

import "math"

// Exact training kernels: the convolution and Adam loops of the neural
// and logistic-regression trainers. On amd64 each has an SSE2 assembly
// form (train_amd64.s); elsewhere the pure-Go twin below runs. A packed
// SSE2 lane rounds exactly like the scalar MULSD, ADDSD, SUBSD, DIVSD and
// SQRTSD that Go emits at GOAMD64=v1, which fuses no multiply-add, so the
// assembly adds each output's terms in the twin's order and returns the
// twin's bits. The tests and fuzz targets in this package hold each
// kernel to its twin bit for bit; only the payload of a NaN that meets
// another NaN is left open, as Go leaves it open for the scalar code.

// ConvValid sets dst[j] = bias + Σ_c Σ_k w[c·K+k]·xs[c][j+k] for every j
// in dst, with K = len(w)/len(xs): a "valid" multi-channel correlation
// with every tap in range. Each output starts at bias and adds its terms
// in (c, k) order. xs must hold at least one row, w at least one tap
// per row, and every xs[c] len(dst)+K−1 values.
func ConvValid(dst []float64, bias float64, w []float64, xs [][]float64) {
	if len(dst) == 0 {
		return
	}
	if len(xs) == 0 || len(w) < len(xs) {
		panic("linalg: ConvValid needs a row and a tap per row")
	}
	k := len(w) / len(xs)
	for _, x := range xs {
		if len(x) < len(dst)+k-1 {
			panic("linalg: ConvValid row shorter than len(dst)+K-1")
		}
	}
	convValid(dst, bias, w[:len(xs)*k], xs, k)
}

// convValidGo is ConvValid's pure-Go twin.
func convValidGo(dst []float64, bias float64, w []float64, xs [][]float64, k int) {
	for j := range dst {
		sum := bias
		for c, x := range xs {
			src := x[j : j+k]
			for i, wv := range w[c*k : c*k+k] {
				sum += wv * src[i]
			}
		}
		dst[j] = sum
	}
}

// LagDot8 adds Σ_t g[t]·xs[i][t+l] to acc[2i+l] for each row i in [0, 8)
// and lane l in {0, 1}, in ascending t: sixteen lagged dot products
// sharing one g. Every xs[i] must hold len(g)+1 values.
func LagDot8(acc *[16]float64, g []float64, xs *[8][]float64) {
	if len(g) == 0 {
		return
	}
	for _, x := range xs {
		if len(x) < len(g)+1 {
			panic("linalg: LagDot8 row shorter than len(g)+1")
		}
	}
	lagDot8(acc, g, xs)
}

// lagDot8Go is LagDot8's pure-Go twin.
func lagDot8Go(acc *[16]float64, g []float64, xs *[8][]float64) {
	for i, x := range xs {
		a0, a1 := acc[2*i], acc[2*i+1]
		x0, x1 := x[:len(g)], x[1:len(g)+1]
		for t, gv := range g {
			a0 += gv * x0[t]
			a1 += gv * x1[t]
		}
		acc[2*i], acc[2*i+1] = a0, a1
	}
}

// AdamConsts are the scalars of one dense Adam step. The assembly reads
// them by position, so the field order is part of the kernel.
type AdamConsts struct {
	Batch         float64 // the gradient is divided by this
	L2            float64
	Beta1         float64
	OneMinusBeta1 float64
	Beta2         float64
	OneMinusBeta2 float64
	LR            float64
	Corr1, Corr2  float64 // bias corrections 1−β1^t and 1−β2^t
	Eps           float64
}

// AdamStep updates every weight w[j] with its moments m[j], v[j] and
// summed gradient grad[j], in this expression order:
//
//	g    = grad/Batch + L2·w
//	m    = Beta1·m + OneMinusBeta1·g
//	v    = Beta2·v + (OneMinusBeta2·g)·g
//	w   -= (LR·(m/Corr1)) / (√(v/Corr2) + Eps)
//
// m, v and grad must be at least as long as w.
func AdamStep(w, m, v, grad []float64, c *AdamConsts) {
	n := len(w)
	if len(m) < n || len(v) < n || len(grad) < n {
		panic("linalg: AdamStep state shorter than the weights")
	}
	adamStep(w, m[:n], v[:n], grad[:n], c)
}

// adamStepGo is AdamStep's pure-Go twin.
func adamStepGo(w, m, v, grad []float64, c *AdamConsts) {
	m, v, grad = m[:len(w)], v[:len(w)], grad[:len(w)]
	for j := range w {
		g := grad[j]/c.Batch + c.L2*w[j]
		m[j] = c.Beta1*m[j] + c.OneMinusBeta1*g
		v[j] = c.Beta2*v[j] + c.OneMinusBeta2*g*g
		w[j] -= c.LR * (m[j] / c.Corr1) / (math.Sqrt(v[j]/c.Corr2) + c.Eps)
	}
}
