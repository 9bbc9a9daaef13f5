//go:build !amd64

package linalg

func convValid(dst []float64, bias float64, w []float64, xs [][]float64, k int) {
	convValidGo(dst, bias, w, xs, k)
}

func lagDot8(acc *[16]float64, g []float64, xs *[8][]float64) { lagDot8Go(acc, g, xs) }

func adamStep(w, m, v, grad []float64, c *AdamConsts) { adamStepGo(w, m, v, grad, c) }
