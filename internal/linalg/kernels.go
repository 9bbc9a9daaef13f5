package linalg

// Flat inner-loop kernels shared by the distance and convolution hot
// paths. Every loop is shaped for bounds-check elimination: both operands
// are re-sliced to one common length up front so the compiler can prove
// the per-element accesses in range, and accumulation stays in strict
// index order so results are bit-identical to the textbook loops they
// replace.

// SumSq returns the sum of squares of a, accumulated in index order.
func SumSq(a []float64) float64 {
	var sum float64
	for _, v := range a {
		sum += v * v
	}
	return sum
}

// SqDist returns the squared Euclidean distance between a and b over
// their common length, accumulated in index order.
func SqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	var sum float64
	for i, av := range a {
		d := av - b[i]
		sum += d * d
	}
	return sum
}

// sqDistBlock is how many squared differences SqDistBounded accumulates
// between early-abandon checks. Checking once per small block instead of
// once per element keeps the inner loop branch-light while preserving
// exactness: sums of squares only grow, so a partial sum at or above the
// bound can never come back under it.
const sqDistBlock = 8

// SqDistBounded accumulates the squared distance between a and b in
// index order, abandoning once the running sum reaches bound (checked
// every sqDistBlock elements). The abandon is exact and order-preserving:
// when the true distance is below bound the returned sum equals SqDist
// bit for bit, because no partial sum ever trips the check.
func SqDistBounded(a, b []float64, bound float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	var sum float64
	for t := 0; t < n; {
		end := t + sqDistBlock
		if end > n {
			end = n
		}
		for ; t < end; t++ {
			d := a[t] - b[t]
			sum += d * d
		}
		if sum >= bound {
			break
		}
	}
	return sum
}

// Axpy adds alpha*x to y in place over the common length (y += alpha*x),
// the classic BLAS update shaped for bounds-check elimination. It is
// AddScaled with the operand roles spelled out and the lengths clamped
// rather than assumed.
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	x, y = x[:n], y[:n]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}
