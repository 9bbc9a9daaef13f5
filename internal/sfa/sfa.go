// Package sfa implements Symbolic Fourier Approximation: sliding windows
// are approximated by their first Fourier values and discretized into short
// words over a small alphabet using supervised information-gain binning
// (the "MCB" step of WEASEL). It is the feature extractor shared by
// WEASEL, WEASEL+MUSE, ECEC and TEASER.
package sfa

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/goetsc/goetsc/internal/fft"
	"github.com/goetsc/goetsc/internal/stats"
)

// Sentinel errors shared by Fit and FitFromCoefficients.
var (
	errNoWindows     = errors.New("sfa: no training windows")
	errLabelMismatch = errors.New("sfa: window/label count mismatch")
	errBadAlphabet   = errors.New("sfa: alphabet must be a power of two <= 16")
)

// Config controls the symbolic transform.
type Config struct {
	// WordLength is the number of Fourier values (real/imaginary parts)
	// kept per window; default 4. The resulting word has WordLength
	// symbols.
	WordLength int
	// Alphabet is the number of discretization bins per value; default 4.
	// Must be a power of two at most 16 so words pack into uint64.
	Alphabet int
	// Norm drops the DC (mean) Fourier component, making words invariant
	// to the window's offset. The framework keeps it off by default,
	// following the paper's streaming argument against normalization.
	Norm bool
}

func (c Config) withDefaults() Config {
	if c.WordLength <= 0 {
		c.WordLength = 4
	}
	if c.Alphabet <= 0 {
		c.Alphabet = 4
	}
	return c
}

// Transform is a fitted symbolic transform for one window size.
type Transform struct {
	cfg Config
	// boundaries[i] holds the Alphabet-1 ascending bin edges for Fourier
	// value i.
	boundaries [][]float64
	bitsPerSym uint
}

// Fit learns discretization boundaries from training windows with labels.
// Every window must have the same length. Boundaries are chosen per Fourier
// value to maximize information gain about the labels, falling back to
// equi-depth quantiles for splits with no class signal.
func Fit(windows [][]float64, labels []int, numClasses int, cfg Config) (*Transform, error) {
	cfg = cfg.withDefaults()
	if len(windows) == 0 {
		return nil, errNoWindows
	}
	coeffs := make([][]float64, len(windows))
	for i, w := range windows {
		coeffs[i] = fft.Coefficients(w, (cfg.WordLength+1)/2+1, cfg.Norm)
	}
	t, err := FitFromCoefficients(coeffs, labels, numClasses, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w (%d windows, %d labels, alphabet %d)", err, len(windows), len(labels), cfg.Alphabet)
	}
	return t, nil
}

// fitBoundariesAt learns the bin edges for one coefficient position.
func fitBoundariesAt(coeffs [][]float64, labels []int, numClasses, alphabet, pos int) []float64 {
	type valueLabel struct {
		v     float64
		label int
	}
	vls := make([]valueLabel, len(coeffs))
	for i, c := range coeffs {
		v := 0.0
		if pos < len(c) {
			v = c[pos]
		}
		vls[i] = valueLabel{v: v, label: labels[i]}
	}
	// A split only falls between distinct values and quantileBoundaries
	// reads values alone, so how ties end up ordered cannot matter.
	slices.SortFunc(vls, func(a, b valueLabel) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})
	values := make([]float64, len(vls))
	lbls := make([]int, len(vls))
	for i, vl := range vls {
		values[i] = vl.v
		lbls[i] = vl.label
	}
	return chooseBoundaries(values, lbls, numClasses, alphabet)
}

// chooseBoundaries picks up to bins-1 split points over the sorted values
// by recursive information gain, mirroring WEASEL's MCB binning. Branches
// without class signal stop splitting — uninformative boundaries only make
// words brittle. When the whole feature carries no signal at all, it falls
// back to equi-depth quantile boundaries so words still spread.
func chooseBoundaries(sortedValues []float64, labels []int, numClasses, bins int) []float64 {
	var out []float64
	var recurse func(lo, hi, bins int)
	recurse = func(lo, hi, bins int) {
		if bins <= 1 || hi-lo < 2 {
			return
		}
		split := bestIGSplit(sortedValues, labels, numClasses, lo, hi)
		if split < 0 {
			return
		}
		boundary := (sortedValues[split-1] + sortedValues[split]) / 2
		lower := bins / 2
		recurse(lo, split, lower)
		out = append(out, boundary)
		recurse(split, hi, bins-lower)
	}
	recurse(0, len(sortedValues), bins)
	if len(out) == 0 {
		out = quantileBoundaries(sortedValues, bins)
	}
	sort.Float64s(out)
	return out
}

// quantileBoundaries returns up to bins-1 distinct equi-depth boundaries.
func quantileBoundaries(sortedValues []float64, bins int) []float64 {
	var out []float64
	n := len(sortedValues)
	for i := 1; i < bins; i++ {
		pos := n * i / bins
		if pos <= 0 || pos >= n {
			continue
		}
		if sortedValues[pos] == sortedValues[pos-1] {
			continue
		}
		b := (sortedValues[pos-1] + sortedValues[pos]) / 2
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// bestIGSplit returns the index s in (lo, hi) maximizing information gain
// of splitting sortedValues[lo:hi] into [lo:s) and [s:hi), or -1 when no
// valid informative split exists. The gain is stats.InformationGain
// spelled out with the parent entropy, which no split changes, computed
// once.
func bestIGSplit(sortedValues []float64, labels []int, numClasses, lo, hi int) int {
	parent := make([]int, numClasses)
	for i := lo; i < hi; i++ {
		parent[labels[i]]++
	}
	left := make([]int, numClasses)
	right := append([]int(nil), parent...)
	h := stats.Entropy(parent)
	n := float64(hi - lo)
	best, bestGain := -1, 1e-9
	for s := lo + 1; s < hi; s++ {
		left[labels[s-1]]++
		right[labels[s-1]]--
		if sortedValues[s] == sortedValues[s-1] {
			continue // cannot split between equal values
		}
		nL, nR := float64(s-lo), float64(hi-s)
		if g := h - (nL*stats.Entropy(left)+nR*stats.Entropy(right))/n; g > bestGain {
			best, bestGain = s, g
		}
	}
	return best
}

// WordLength returns the effective word length (possibly reduced for short
// windows).
func (t *Transform) WordLength() int { return t.cfg.WordLength }

// Word discretizes one window into a packed word. Windows shorter than the
// training size still produce a word from the values available.
func (t *Transform) Word(window []float64) uint64 {
	c := fft.Coefficients(window, (t.cfg.WordLength+1)/2+1, t.cfg.Norm)
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

func binOf(boundaries []float64, v float64) int {
	// boundaries are ascending; bin = count of boundaries <= v.
	bin := 0
	for _, b := range boundaries {
		if v >= b {
			bin++
		} else {
			break
		}
	}
	return bin
}

func bits(alphabet int) int {
	b := 0
	for 1<<b < alphabet {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Windows extracts all sliding windows of the given size (stride 1) from a
// series. A series shorter than size yields a single truncated window (the
// whole series), so prefix classification never starves.
func Windows(series []float64, size int) [][]float64 {
	if size <= 0 {
		return nil
	}
	if len(series) <= size {
		return [][]float64{series}
	}
	out := make([][]float64, 0, len(series)-size+1)
	for off := 0; off+size <= len(series); off++ {
		out = append(out, series[off:off+size])
	}
	return out
}
