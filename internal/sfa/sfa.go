// Package sfa implements Symbolic Fourier Approximation: sliding windows
// are approximated by their first Fourier values and discretized into short
// words over a small alphabet using supervised information-gain binning
// (the "MCB" step of WEASEL). It is the feature extractor shared by
// WEASEL, WEASEL+MUSE, ECEC and TEASER.
package sfa

import (
	"errors"
	"fmt"
	"math"
	"slices"

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

// splitter holds the per-Fit state of the information-gain binning: an
// x·log2 x table over every count a split can see, and buffers reused
// by every split search, so a search allocates nothing.
type splitter struct {
	// xlog2x[c] is c·log2 c for c in [0, len(coeffs)].
	xlog2x              []float64
	parent, left, right []int
	screen              []float64 // screened gain per split index
	vls                 []valueLabel
	values              []float64
	labels              []int
}

// valueLabel is one window's coefficient value with its label.
type valueLabel struct {
	v     float64
	label int
}

// newSplitter sizes a splitter for n windows in numClasses classes,
// paying one Log2 per possible count.
func newSplitter(n, numClasses int) *splitter {
	sp := &splitter{
		xlog2x: make([]float64, n+1),
		parent: make([]int, numClasses),
		left:   make([]int, numClasses),
		right:  make([]int, numClasses),
		screen: make([]float64, n),
		vls:    make([]valueLabel, n),
		values: make([]float64, n),
		labels: make([]int, n),
	}
	for c := 2; c <= n; c++ {
		x := float64(c)
		sp.xlog2x[c] = x * math.Log2(x)
	}
	return sp
}

// boundariesAt learns the bin edges for one coefficient position.
func (sp *splitter) boundariesAt(coeffs [][]float64, labels []int, alphabet, pos int) []float64 {
	vls := sp.vls[:len(coeffs)]
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
	values, lbls := sp.values[:len(vls)], sp.labels[:len(vls)]
	for i, vl := range vls {
		values[i] = vl.v
		lbls[i] = vl.label
	}
	return sp.boundaries(values, lbls, alphabet)
}

// boundaries picks up to bins-1 split points over the sorted values by
// recursive information gain, mirroring WEASEL's MCB binning. Branches
// without class signal stop splitting — uninformative boundaries only
// make words brittle. When the whole feature carries no signal at all,
// it falls back to equi-depth quantile boundaries so words still spread.
// The in-order recursion emits boundaries in ascending order, as does
// quantileBoundaries.
func (sp *splitter) boundaries(sortedValues []float64, labels []int, bins int) []float64 {
	var out []float64
	var recurse func(lo, hi, bins int)
	recurse = func(lo, hi, bins int) {
		if bins <= 1 || hi-lo < 2 {
			return
		}
		split := sp.bestSplit(sortedValues, labels, lo, hi)
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

// screenTolerance is τ, the margin (in bits of gain) within which a
// screened candidate is rescored exactly.
//
// Exactness: let ε be the largest error of either computation, and u =
// 2⁻⁵³. The screen adds 3C+3 table terms (C classes), each within a few
// ulps, whose magnitudes sum to at most 4·N·log2 N, then divides by N:
// its error is below about 4·(3C+5)·u·log2 N. The entropy formula sums
// terms p·log2 p whose magnitudes add up to at most log2 C, each within
// a few u: its error is below about 2·(4+log2 C)·C·u. For C ≤ 1024 and
// N ≤ 2⁴⁰ the two add up to less than 10⁻¹⁰. If s* is the first index
// with the largest exact gain and b the best screened index, then
// screen(s*) ≥ exact(s*) − ε ≥ exact(b) − ε ≥ screen(b) − 2ε, so s*
// survives the cut whenever τ ≥ 2ε, and rescoring the survivors in index
// order with the strict > finds it. No exact gain can pass the 1e-9
// floor unless the best screened gain plus τ does. τ = 1e-7 is a
// thousand times the bound.
const screenTolerance = 1e-7

// bestSplit returns the index s in (lo, hi) maximizing information gain
// of splitting sortedValues[lo:hi] into [lo:s) and [s:hi), or -1 when no
// valid informative split exists. The gain is stats.InformationGain
// spelled out with the parent entropy, which no split changes, computed
// once.
//
// A screening pass scores every split as N·gain = N·H(parent) −
// nL·H(left) − nR·H(right), with n·H = n·log2 n − Σ c·log2 c read from
// the table, so it calls no Log2. Only splits within screenTolerance of
// the best screened gain are then rescored with the entropy formula, in
// index order with the strict > and the 1e-9 floor, which picks exactly
// the split scoring every candidate with that formula would.
func (sp *splitter) bestSplit(sortedValues []float64, labels []int, lo, hi int) int {
	t := sp.xlog2x
	parent, left, right := sp.parent, sp.left, sp.right
	clear(parent)
	for i := lo; i < hi; i++ {
		parent[labels[i]]++
	}
	n := hi - lo
	parentTerm := t[n]
	present := 0
	for _, c := range parent {
		parentTerm -= t[c]
		if c > 0 {
			present++
		}
	}
	if present < 2 {
		// Every entropy is exactly 0, so every gain is 0: below the
		// floor, while the screen would keep every split.
		return -1
	}
	clear(left)
	copy(right, parent)
	fn := float64(n)
	screen := sp.screen
	bestScreen := math.Inf(-1)
	for s := lo + 1; s < hi; s++ {
		k := labels[s-1]
		left[k]++
		right[k]--
		if sortedValues[s] == sortedValues[s-1] {
			screen[s] = math.Inf(-1) // cannot split between equal values
			continue
		}
		g := parentTerm - t[s-lo] - t[hi-s]
		for c, l := range left {
			g += t[l] + t[right[c]]
		}
		g /= fn
		screen[s] = g
		if g > bestScreen {
			bestScreen = g
		}
	}
	const floor = 1e-9
	if !(bestScreen+screenTolerance > floor) {
		return -1
	}
	cut := bestScreen - screenTolerance
	clear(left)
	copy(right, parent)
	h := stats.Entropy(parent)
	best, bestGain := -1, floor
	for s := lo + 1; s < hi; s++ {
		k := labels[s-1]
		left[k]++
		right[k]--
		if screen[s] < cut {
			continue
		}
		nL, nR := float64(s-lo), float64(hi-s)
		if g := h - (nL*stats.Entropy(left)+nR*stats.Entropy(right))/fn; g > bestGain {
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
