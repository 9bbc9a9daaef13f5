// Package weasel implements the WEASEL time-series classifier (Schäfer &
// Leser, CIKM 2017) and its multivariate extension WEASEL+MUSE: sliding
// windows of several sizes are symbolized with SFA, unigram and bigram word
// counts form a sparse bag-of-patterns, chi-squared filtering prunes the
// vocabulary, and a logistic-regression head produces probabilities.
//
// Following the paper's streaming argument (Sections 3.6 and 4), the whole
// series z-normalization step of the original implementations is left out.
package weasel

import (
	"fmt"
	"math"
	"sort"

	"github.com/goetsc/goetsc/internal/logreg"
	"github.com/goetsc/goetsc/internal/sfa"
	"github.com/goetsc/goetsc/internal/stats"
)

// Config controls the WEASEL pipeline. The zero value selects defaults.
type Config struct {
	// WordLength is the SFA word length; default 4.
	WordLength int
	// Alphabet is the SFA alphabet size; default 4.
	Alphabet int
	// MinWindow is the smallest window size; default 4 (clamped to the
	// series length).
	MinWindow int
	// MaxWindows bounds how many window sizes are used; default 6.
	MaxWindows int
	// Bigrams adds adjacent-word pairs to the bag; default on (disable
	// with NoBigrams).
	NoBigrams bool
	// Chi2Threshold prunes features whose chi-squared score with the class
	// is below the threshold; default 2.
	Chi2Threshold float64
	// MaxFeatures caps the vocabulary (top chi-squared wins); default 8192.
	MaxFeatures int
	// SFANorm drops the DC Fourier coefficient in SFA words.
	SFANorm bool
	// MaxFitWindows caps how many windows are used to fit SFA boundaries
	// per window size (subsampled by stride); default 20000.
	MaxFitWindows int
	// Derivatives adds first-difference channels (always on for MUSE).
	Derivatives bool
	// LogReg configures the linear head.
	LogReg logreg.Config
}

func (c Config) withDefaults() Config {
	if c.WordLength <= 0 {
		c.WordLength = 4
	}
	if c.Alphabet <= 0 {
		c.Alphabet = 4
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 4
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 6
	}
	if c.Chi2Threshold == 0 {
		c.Chi2Threshold = 2
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = 8192
	}
	if c.MaxFitWindows <= 0 {
		c.MaxFitWindows = 20000
	}
	if c.LogReg.Epochs == 0 {
		c.LogReg.Epochs = 80
	}
	return c
}

// featKey identifies one bag-of-patterns dimension.
type featKey struct {
	channel int
	window  int
	bigram  bool
	w1, w2  uint64
}

type chanWin struct {
	channel int
	window  int
}

// Model is a fitted WEASEL / WEASEL+MUSE classifier.
type Model struct {
	Cfg Config

	cfg         Config
	numClasses  int
	numVars     int
	windowSizes []int
	transforms  map[chanWin]*sfa.Transform
	vocab       map[featKey]int
	head        *logreg.Model
}

// New returns an untrained model.
func New(cfg Config) *Model { return &Model{Cfg: cfg} }

// FitSeries trains on univariate series.
func (m *Model) FitSeries(series [][]float64, labels []int, numClasses int) error {
	instances := make([][][]float64, len(series))
	for i, s := range series {
		instances[i] = [][]float64{s}
	}
	return m.Fit(instances, labels, numClasses)
}

// Fit trains on (possibly multivariate) instances, indexed
// [instance][variable][time].
func (m *Model) Fit(instances [][][]float64, labels []int, numClasses int) error {
	if len(instances) == 0 {
		return fmt.Errorf("weasel: no instances")
	}
	if len(instances) != len(labels) {
		return fmt.Errorf("weasel: %d instances but %d labels", len(instances), len(labels))
	}
	if numClasses < 2 {
		return fmt.Errorf("weasel: need at least 2 classes, got %d", numClasses)
	}
	cfg := m.Cfg.withDefaults()
	m.cfg = cfg
	m.numClasses = numClasses
	m.numVars = len(instances[0])
	if m.numVars == 0 {
		return fmt.Errorf("weasel: instances have no variables")
	}

	channels := m.channelSeriesAll(instances)
	maxLen := 0
	for _, inst := range channels {
		for _, ch := range inst {
			if len(ch) > maxLen {
				maxLen = len(ch)
			}
		}
	}
	m.windowSizes = windowSizes(cfg.MinWindow, maxLen, cfg.MaxWindows)

	// Fit one SFA transform per (channel, window size) and build the
	// training bags in the same pass. Sliding-window Fourier values are
	// computed once per series with the incremental ("momentary") DFT —
	// the optimization that makes WEASEL tractable on wide series.
	nChannels := len(channels[0])
	m.transforms = make(map[chanWin]*sfa.Transform)
	bags := make([]map[featKey]float64, len(channels))
	for i := range bags {
		bags[i] = make(map[featKey]float64)
	}
	for ch := 0; ch < nChannels; ch++ {
		for _, w := range m.windowSizes {
			// One incremental-DFT pass per series.
			coeffsPer := make([][][]float64, len(channels))
			total := 0
			for i := range channels {
				coeffsPer[i] = sfa.SlidingCoefficients(channels[i][ch], w, cfg.WordLength, cfg.SFANorm)
				total += len(coeffsPer[i])
			}
			// Subsampled boundary fitting.
			stride := 1
			if total > cfg.MaxFitWindows {
				stride = total/cfg.MaxFitWindows + 1
			}
			var fitCoeffs [][]float64
			var fitLabels []int
			for i := range channels {
				for k := 0; k < len(coeffsPer[i]); k += stride {
					fitCoeffs = append(fitCoeffs, coeffsPer[i][k])
					fitLabels = append(fitLabels, labels[i])
				}
			}
			tr, err := sfa.FitFromCoefficients(fitCoeffs, fitLabels, numClasses, sfa.Config{
				WordLength: cfg.WordLength,
				Alphabet:   cfg.Alphabet,
				Norm:       cfg.SFANorm,
			})
			if err != nil {
				return fmt.Errorf("weasel: channel %d window %d: %w", ch, w, err)
			}
			m.transforms[chanWin{ch, w}] = tr
			// Words + bags from the same coefficient vectors.
			for i := range channels {
				words := make([]uint64, len(coeffsPer[i]))
				for k, c := range coeffsPer[i] {
					words[k] = tr.WordFromCoefficients(c)
					bags[i][featKey{channel: ch, window: w, w1: words[k]}]++
				}
				if !cfg.NoBigrams {
					for k := w; k < len(words); k++ {
						bags[i][featKey{channel: ch, window: w, bigram: true, w1: words[k-w], w2: words[k]}]++
					}
				}
			}
		}
	}

	// Accumulate per-feature per-class presence counts for chi-squared
	// selection.
	classTotals := make([]float64, numClasses)
	featClassCounts := make(map[featKey][]float64)
	for i := range channels {
		classTotals[labels[i]]++
		for k := range bags[i] {
			counts, ok := featClassCounts[k]
			if !ok {
				counts = make([]float64, numClasses)
				featClassCounts[k] = counts
			}
			counts[labels[i]]++
		}
	}

	// Chi-squared of presence/absence against the class.
	type scored struct {
		key   featKey
		score float64
	}
	var candidates []scored
	for k, present := range featClassCounts {
		table := make([][]float64, 2)
		table[0] = present
		absent := make([]float64, numClasses)
		for c := range absent {
			absent[c] = classTotals[c] - present[c]
		}
		table[1] = absent
		if s := stats.ChiSquared(table); s >= cfg.Chi2Threshold {
			candidates = append(candidates, scored{key: k, score: s})
		}
	}
	if len(candidates) == 0 {
		// No feature cleared the bar; keep the highest-scoring few so the
		// model remains usable.
		for k, present := range featClassCounts {
			table := [][]float64{present, make([]float64, numClasses)}
			for c := range table[1] {
				table[1][c] = classTotals[c] - present[c]
			}
			candidates = append(candidates, scored{key: k, score: stats.ChiSquared(table)})
		}
	}
	sort.Slice(candidates, func(a, b int) bool {
		if candidates[a].score != candidates[b].score {
			return candidates[a].score > candidates[b].score
		}
		return featLess(candidates[a].key, candidates[b].key)
	})
	if len(candidates) > cfg.MaxFeatures {
		candidates = candidates[:cfg.MaxFeatures]
	}
	m.vocab = make(map[featKey]int, len(candidates))
	for i, c := range candidates {
		m.vocab[c.key] = i
	}
	if len(m.vocab) == 0 {
		return fmt.Errorf("weasel: empty vocabulary after selection")
	}

	// Train the linear head on the selected features.
	X := make([][]float64, len(channels))
	for i := range channels {
		X[i] = m.vector(bags[i])
	}
	m.head = logreg.New(cfg.LogReg)
	return m.head.Fit(X, labels, numClasses)
}

// PredictProbaSeries returns class probabilities for one univariate series.
func (m *Model) PredictProbaSeries(series []float64) []float64 {
	return m.PredictProba([][]float64{series})
}

// PredictProba returns class probabilities for one instance
// ([variable][time]).
func (m *Model) PredictProba(instance [][]float64) []float64 {
	channels := m.channelSeries(instance)
	return m.head.PredictProba(m.vector(m.bag(channels)))
}

// Predict returns the most probable class for one instance.
func (m *Model) Predict(instance [][]float64) int {
	return stats.ArgMax(m.PredictProba(instance))
}

// NumFeatures reports the selected vocabulary size.
func (m *Model) NumFeatures() int { return len(m.vocab) }

// channelSeriesAll expands all instances into channel series.
func (m *Model) channelSeriesAll(instances [][][]float64) [][][]float64 {
	out := make([][][]float64, len(instances))
	for i, inst := range instances {
		out[i] = m.channelSeries(inst)
	}
	return out
}

// channelSeries expands one instance into its channels: each variable,
// plus its first-difference series when Derivatives is enabled (the MUSE
// construction).
func (m *Model) channelSeries(instance [][]float64) [][]float64 {
	cfg := m.cfg
	var out [][]float64
	for _, s := range instance {
		out = append(out, s)
		if cfg.Derivatives && len(s) > 1 {
			d := make([]float64, len(s)-1)
			for t := 1; t < len(s); t++ {
				d[t-1] = s[t] - s[t-1]
			}
			out = append(out, d)
		} else if cfg.Derivatives {
			out = append(out, []float64{0})
		}
	}
	return out
}

// bag computes the bag-of-patterns of one instance's channels using the
// incremental sliding DFT.
func (m *Model) bag(channels [][]float64) map[featKey]float64 {
	bag := make(map[featKey]float64)
	for ch, series := range channels {
		for _, w := range m.windowSizes {
			tr, ok := m.transforms[chanWin{ch, w}]
			if !ok {
				continue
			}
			words := tr.WordsSliding(series, w)
			for _, word := range words {
				bag[featKey{channel: ch, window: w, w1: word}]++
			}
			if !m.cfg.NoBigrams {
				// Bigram = words one full window apart.
				for i := w; i < len(words); i++ {
					bag[featKey{channel: ch, window: w, bigram: true, w1: words[i-w], w2: words[i]}]++
				}
			}
		}
	}
	return bag
}

// vector projects a bag onto the selected vocabulary.
func (m *Model) vector(bag map[featKey]float64) []float64 {
	return m.vectorInto(nil, bag)
}

// vectorInto fills dst (grown as needed) with the vocabulary vector of
// the bag, zeroing entries the bag does not touch.
func (m *Model) vectorInto(dst []float64, bag map[featKey]float64) []float64 {
	if cap(dst) < len(m.vocab) {
		dst = make([]float64, len(m.vocab))
	} else {
		dst = dst[:len(m.vocab)]
		for i := range dst {
			dst[i] = 0
		}
	}
	for k, v := range bag {
		if idx, ok := m.vocab[k]; ok {
			// Square-root scaling tames bursty counts.
			dst[idx] = math.Sqrt(v)
		}
	}
	return dst
}

func featLess(a, b featKey) bool {
	if a.channel != b.channel {
		return a.channel < b.channel
	}
	if a.window != b.window {
		return a.window < b.window
	}
	if a.bigram != b.bigram {
		return !a.bigram
	}
	if a.w1 != b.w1 {
		return a.w1 < b.w1
	}
	return a.w2 < b.w2
}

// windowSizes picks up to maxWindows sizes in [minWin, maxLen], linearly
// spaced, always including the extremes.
func windowSizes(minWin, maxLen, maxWindows int) []int {
	if maxLen < 2 {
		maxLen = 2
	}
	if minWin > maxLen {
		minWin = maxLen
	}
	if minWin < 2 {
		minWin = 2
	}
	span := maxLen - minWin
	if span == 0 {
		return []int{minWin}
	}
	n := maxWindows
	if n > span+1 {
		n = span + 1
	}
	sizes := make([]int, 0, n)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		w := minWin + span*i/(n-1)
		if !seen[w] {
			seen[w] = true
			sizes = append(sizes, w)
		}
	}
	return sizes
}

// NewMUSE returns a WEASEL+MUSE configuration: derivatives enabled, suited
// for multivariate instances.
func NewMUSE(cfg Config) *Model {
	cfg.Derivatives = true
	return New(cfg)
}
