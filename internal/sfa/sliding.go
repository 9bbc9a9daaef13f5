package sfa

import (
	"math"

	"github.com/goetsc/goetsc/internal/fft"
)

// SlidingCoefficients computes the first nValues Fourier values (re/im
// interleaved, optionally dropping the DC pair) for EVERY sliding window
// of size w over the series, using the incremental ("momentary") DFT
// update the original WEASEL relies on:
//
//	X_k(s+1) = e^{2πik/w} · (X_k(s) − x[s] + x[s+w])
//
// Each slide costs O(nValues) instead of O(w log w), which makes wide
// datasets tractable. The recursion is re-anchored with a direct DFT every
// resyncInterval slides to stop floating-point drift. A series shorter
// than w yields a single (truncated) coefficient vector, mirroring
// Windows.
func SlidingCoefficients(series []float64, w, nValues int, drop bool) [][]float64 {
	if w <= 0 {
		return nil
	}
	if len(series) <= w {
		return [][]float64{fft.Coefficients(series, (nValues+1)/2+1, drop)}
	}
	cs := NewCoeffStream(w, nValues, drop)
	cs.out = make([][]float64, 0, len(series)-w+1)
	cs.Extend(series)
	return cs.out
}

// resyncInterval is how many momentary-DFT slides run between direct-DFT
// re-anchors that stop floating-point drift. Anchors land at absolute
// window positions (multiples of the interval), which is what makes the
// sweep prefix-deterministic: a window's coefficients depend only on the
// data it covers, never on how much series follows it.
const resyncInterval = 512

// CoeffStream is the incremental form of SlidingCoefficients: feed it a
// growing series with Extend and it emits one coefficient vector per
// complete window, bit-identical to a single full pass over the final
// series. It exists so streaming sessions and checkpoint classifiers
// (TEASER/ECEC) can reuse sliding-window Fourier values across prefix
// extensions instead of re-transforming every prefix from scratch.
type CoeffStream struct {
	w, nValues int
	drop       bool
	bins       int
	twRe, twIm []float64
	re, im     []float64
	pos        int // next window start to emit
	out        [][]float64
}

// NewCoeffStream prepares a stream of windows of size w (must be >= 1).
func NewCoeffStream(w, nValues int, drop bool) *CoeffStream {
	// Number of complex bins needed to produce nValues real values after
	// the optional DC drop.
	bins := (nValues+1)/2 + 1
	if bins > w/2+1 {
		bins = w/2 + 1
	}
	cs := &CoeffStream{
		w: w, nValues: nValues, drop: drop, bins: bins,
		twRe: make([]float64, bins), twIm: make([]float64, bins),
		re: make([]float64, bins), im: make([]float64, bins),
	}
	// Twiddle factors e^{2πik/w}.
	for k := 0; k < bins; k++ {
		angle := 2 * math.Pi * float64(k) / float64(w)
		cs.twRe[k] = math.Cos(angle)
		cs.twIm[k] = math.Sin(angle)
	}
	return cs
}

// Extend consumes every complete window the series now covers. The
// series must be a prefix-extension of what previous calls saw (already
// emitted positions are never re-read beyond the single point the
// recurrence needs, and series values at covered positions must not
// change). Passing a shorter series than before is a no-op.
func (cs *CoeffStream) Extend(series []float64) {
	for cs.pos+cs.w <= len(series) {
		s := cs.pos
		if s%resyncInterval == 0 {
			full := fft.TransformBins(series[s:s+cs.w], cs.bins)
			for k := 0; k < cs.bins; k++ {
				cs.re[k] = full[2*k]
				cs.im[k] = full[2*k+1]
			}
		} else {
			delta := series[s-1+cs.w] - series[s-1]
			for k := 0; k < cs.bins; k++ {
				r := cs.re[k] + delta
				i := cs.im[k]
				cs.re[k] = r*cs.twRe[k] - i*cs.twIm[k]
				cs.im[k] = r*cs.twIm[k] + i*cs.twRe[k]
			}
		}
		cs.out = append(cs.out, extract(cs.re, cs.im, cs.bins, cs.nValues, cs.drop))
		cs.pos++
	}
}

// Windows returns how many coefficient vectors have been emitted.
func (cs *CoeffStream) Windows() int { return len(cs.out) }

// Coeff returns the coefficient vector of window i (0-based start
// offset). The slice is owned by the stream; callers must not modify it.
func (cs *CoeffStream) Coeff(i int) []float64 { return cs.out[i] }

// extract converts the bin arrays into the interleaved value slice,
// honouring the DC drop and value count.
func extract(re, im []float64, bins, nValues int, drop bool) []float64 {
	start := 0
	if drop {
		start = 1
	}
	out := make([]float64, 0, nValues)
	for k := start; k < bins && len(out) < nValues; k++ {
		out = append(out, re[k])
		if len(out) < nValues {
			out = append(out, im[k])
		}
	}
	return out
}

// WordFromCoefficients discretizes a precomputed coefficient vector.
func (t *Transform) WordFromCoefficients(c []float64) uint64 {
	var word uint64
	for pos := 0; pos < t.cfg.WordLength; pos++ {
		var v float64
		if pos < len(c) {
			v = c[pos]
		}
		sym := uint64(binOf(t.boundaries[pos], v))
		word = word<<t.bitsPerSym | sym
	}
	return word
}

// FitFromCoefficients learns discretization boundaries directly from
// precomputed coefficient vectors (as produced by SlidingCoefficients),
// avoiding a second pass over the raw windows.
func FitFromCoefficients(coeffs [][]float64, labels []int, numClasses int, cfg Config) (*Transform, error) {
	cfg = cfg.withDefaults()
	if len(coeffs) == 0 {
		return nil, errNoWindows
	}
	if len(coeffs) != len(labels) {
		return nil, errLabelMismatch
	}
	if cfg.Alphabet&(cfg.Alphabet-1) != 0 || cfg.Alphabet > 16 {
		return nil, errBadAlphabet
	}
	actual := cfg.WordLength
	for _, c := range coeffs {
		if len(c) < actual {
			actual = len(c)
		}
	}
	if actual <= 0 {
		return nil, errNoWindows
	}
	t := &Transform{cfg: cfg}
	t.cfg.WordLength = actual
	t.bitsPerSym = uint(bits(cfg.Alphabet))
	t.boundaries = make([][]float64, actual)
	sp := newSplitter(len(coeffs), numClasses)
	for pos := 0; pos < actual; pos++ {
		t.boundaries[pos] = sp.boundariesAt(coeffs, labels, cfg.Alphabet, pos)
	}
	return t, nil
}
