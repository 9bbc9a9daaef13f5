package linalg

// convBlock is how many consecutive outputs convValid16 holds in
// registers at once.
const convBlock = 16

// convValid16 is ConvValid over blocks of convBlock outputs; the last
// block overlaps the one before it when len(dst) is not a multiple of
// convBlock. It needs len(dst) >= convBlock, len(xs) >= 1 and k >= 1.
//
//go:noescape
func convValid16(dst []float64, bias float64, w []float64, xs [][]float64, k int)

// convValid4 is convValid16 over blocks of four outputs, for
// 4 <= len(dst) < convBlock.
//
//go:noescape
func convValid4(dst []float64, bias float64, w []float64, xs [][]float64, k int)

// lagDot8x is LagDot8 over row pointers; it needs len(g) >= 1.
//
//go:noescape
func lagDot8x(acc *[16]float64, g []float64, xs *[8]*float64)

// adamStep2 is AdamStep over the first n weights, two per packed op; n
// must be even and at least 2.
//
//go:noescape
func adamStep2(w, m, v, grad *float64, n int, c *AdamConsts)

func convValid(dst []float64, bias float64, w []float64, xs [][]float64, k int) {
	switch {
	case len(dst) >= convBlock:
		convValid16(dst, bias, w, xs, k)
	case len(dst) >= 4:
		convValid4(dst, bias, w, xs, k)
	default:
		convValidGo(dst, bias, w, xs, k)
	}
}

func lagDot8(acc *[16]float64, g []float64, xs *[8][]float64) {
	var ptrs [8]*float64
	for i, x := range xs {
		ptrs[i] = &x[0]
	}
	lagDot8x(acc, g, &ptrs)
}

func adamStep(w, m, v, grad []float64, c *AdamConsts) {
	even := len(w) &^ 1
	if even > 0 {
		adamStep2(&w[0], &m[0], &v[0], &grad[0], even, c)
	}
	if even < len(w) {
		adamStepGo(w[even:], m[even:], v[even:], grad[even:], c)
	}
}
