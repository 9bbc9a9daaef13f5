// Package fft implements the discrete Fourier transform used by the SFA /
// WEASEL substrate: an iterative radix-2 FFT for power-of-two lengths and a
// direct DFT fallback for arbitrary lengths (windows in WEASEL can have any
// size).
package fft

import "math"

// Transform returns the DFT of the real input signal as interleaved
// (real, imaginary) pairs for the first len(x)/2+1 non-redundant bins:
// out[2k] = Re X_k, out[2k+1] = Im X_k. It dispatches to the radix-2 FFT
// for power-of-two lengths and to a direct O(n²) DFT otherwise.
func Transform(x []float64) []float64 { return TransformBins(x, len(x)/2+1) }

// TransformBins returns the first min(bins, len(x)/2+1) bins of
// Transform(x), bit for bit. The direct DFT computes each bin on its own,
// so asking for the few bins SFA keeps skips the cost of all the others;
// power-of-two lengths still run the full FFT.
func TransformBins(x []float64, bins int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	bins = max(min(bins, n/2+1), 0)
	if n&(n-1) == 0 && n >= 2 {
		return realFFT(x, bins)
	}
	return directDFT(x, bins)
}

// Coefficients returns the first nCoeffs real/imaginary Fourier values of x
// as a flat slice [re0, im0, re1, im1, ...]. When dropFirst is true the DC
// component (re0, im0) is skipped — SFA does this for z-normalized windows,
// where the mean carries no class information. The output is truncated if
// the signal is too short to provide nCoeffs values.
func Coefficients(x []float64, nCoeffs int, dropFirst bool) []float64 {
	start := 0
	if dropFirst {
		start = 1
	}
	out := TransformBins(x, start+nCoeffs)
	if 2*start >= len(out) {
		return nil
	}
	return out[2*start:]
}

// directDFT computes the first bins bins of the DFT of x term by term.
// math.Sincos returns the same bits as math.Sin and math.Cos apart.
func directDFT(x []float64, bins int) []float64 {
	n := len(x)
	out := make([]float64, 2*bins)
	for k := 0; k < bins; k++ {
		var re, im float64
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sin, cos := math.Sincos(angle)
			re += x[t] * cos
			im += x[t] * sin
		}
		out[2*k] = re
		out[2*k+1] = im
	}
	return out
}

// realFFT runs the full radix-2 FFT and keeps the first bins bins.
func realFFT(x []float64, bins int) []float64 {
	n := len(x)
	re := append([]float64(nil), x...)
	im := make([]float64, n)
	fftInPlace(re, im)
	out := make([]float64, 2*bins)
	for k := 0; k < bins; k++ {
		out[2*k] = re[k]
		out[2*k+1] = im[k]
	}
	return out
}

// fftInPlace performs an iterative radix-2 Cooley-Tukey FFT on the complex
// signal (re, im). len(re) must be a power of two.
func fftInPlace(re, im []float64) {
	n := len(re)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		angle := -2 * math.Pi / float64(length)
		wRe := math.Cos(angle)
		wIm := math.Sin(angle)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i, j := start+k, start+k+half
				tRe := re[j]*curRe - im[j]*curIm
				tIm := re[j]*curIm + im[j]*curRe
				re[j] = re[i] - tRe
				im[j] = im[i] - tIm
				re[i] += tRe
				im[i] += tIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
}

// Inverse reconstructs a real signal of length n from the interleaved
// half-spectrum produced by Transform. It is primarily used by tests to
// verify the transform is invertible.
func Inverse(spectrum []float64, n int) []float64 {
	bins := len(spectrum) / 2
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		var sum float64
		for k := 0; k < bins; k++ {
			re, im := spectrum[2*k], spectrum[2*k+1]
			angle := 2 * math.Pi * float64(k) * float64(t) / float64(n)
			v := re*math.Cos(angle) - im*math.Sin(angle)
			// Bins other than DC and (for even n) Nyquist appear twice in
			// the full spectrum of a real signal.
			if k != 0 && !(n%2 == 0 && k == n/2) {
				v *= 2
			}
			sum += v
		}
		out[t] = sum / float64(n)
	}
	return out
}
