// Package stats provides the elementary statistics used across the ETSC
// framework: moments, coefficient of variation, entropy and information
// gain, chi-squared scores, quantiles and distance primitives.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStd returns the mean and population standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sum, ss float64
	for _, x := range xs {
		sum += x
		ss += x * x
	}
	mean = sum / n
	v := ss/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// CoefficientOfVariation returns stddev/|mean| over all values, the measure
// the paper uses (Section 5.4) to flag "Unstable" datasets (CoV > 1.08).
// It returns +Inf when the mean is zero and the values are not all zero,
// and 0 when all values are zero.
func CoefficientOfVariation(xs []float64) float64 {
	mean, std := MeanStd(xs)
	if math.Abs(mean) < 1e-12 {
		if std < 1e-12 {
			return 0
		}
		return math.Inf(1)
	}
	return std / math.Abs(mean)
}

// Entropy returns the Shannon entropy (in bits) of a class-count vector.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// InformationGain returns the reduction in label entropy achieved by
// splitting a population with class counts parent into the two partitions
// left and right (parent must equal left+right element-wise).
func InformationGain(parent, left, right []int) float64 {
	nL, nR := 0, 0
	for _, c := range left {
		nL += c
	}
	for _, c := range right {
		nR += c
	}
	n := nL + nR
	if n == 0 {
		return 0
	}
	h := Entropy(parent)
	return h - (float64(nL)*Entropy(left)+float64(nR)*Entropy(right))/float64(n)
}

// ChiSquared returns the chi-squared statistic of an observed contingency
// table (rows = feature present/absent or bins, cols = classes) against the
// independence hypothesis. Rows or columns with zero totals contribute 0.
func ChiSquared(table [][]float64) float64 {
	if len(table) == 0 {
		return 0
	}
	nRows, nCols := len(table), len(table[0])
	rowSum := make([]float64, nRows)
	colSum := make([]float64, nCols)
	var total float64
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			rowSum[r] += table[r][c]
			colSum[c] += table[r][c]
			total += table[r][c]
		}
	}
	if total == 0 {
		return 0
	}
	var chi2 float64
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			expected := rowSum[r] * colSum[c] / total
			if expected < 1e-12 {
				continue
			}
			d := table[r][c] - expected
			chi2 += d * d / expected
		}
	}
	return chi2
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TopTwo returns the two largest of a set of class probabilities; the
// second is 0 when there is only one class.
func TopTwo(probs []float64) (p1, p2 float64) {
	p1, p2 = -1, -1
	for _, p := range probs {
		if p > p1 {
			p2 = p1
			p1 = p
		} else if p > p2 {
			p2 = p
		}
	}
	if p2 < 0 {
		p2 = 0
	}
	return p1, p2
}

// ArgMax returns the index of the maximum element (first one on ties),
// or -1 for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}

// ArgMin returns the index of the minimum element (first one on ties),
// or -1 for an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs[1:] {
		if x < xs[best] {
			best = i + 1
		}
	}
	return best
}

// SquaredEuclidean returns the squared Euclidean distance between equal
// length vectors a and b.
func SquaredEuclidean(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// Euclidean returns the Euclidean distance between equal-length vectors.
func Euclidean(a, b []float64) float64 { return math.Sqrt(SquaredEuclidean(a, b)) }

// MinSlidingDistance returns the minimum Euclidean distance between the
// query and every contiguous window of the same length inside series, and
// the offset where the minimum occurs. It returns (+Inf, -1) when the
// series is shorter than the query.
func MinSlidingDistance(query, series []float64) (float64, int) {
	m := len(query)
	if len(series) < m || m == 0 {
		return math.Inf(1), -1
	}
	best := math.Inf(1)
	bestAt := -1
	for off := 0; off+m <= len(series); off++ {
		var sum float64
		for i := 0; i < m; i++ {
			d := query[i] - series[off+i]
			sum += d * d
			if sum >= best {
				break // early abandon
			}
		}
		if sum < best {
			best = sum
			bestAt = off
		}
	}
	return math.Sqrt(best), bestAt
}

// Softmax writes the softmax of logits into out (allocating when out is
// nil) and returns it. It is numerically stable for large logits.
func Softmax(logits, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(logits))
	}
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
