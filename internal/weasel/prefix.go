package weasel

import (
	"github.com/goetsc/goetsc/internal/sfa"
)

// PrefixCache shares the expensive per-prefix state of one growing
// univariate series across every WEASEL model that scores its prefixes:
// the first-difference (derivative) channel and one sliding-window
// Fourier coefficient stream per (channel, window size). Checkpoint
// ensembles (TEASER, ECEC) train many pipelines with identical SFA
// settings over the same series, so the Fourier work — the dominant cost
// of a WEASEL evaluation — is paid once here and reused by every
// pipeline's PrefixEvaluator.
//
// The cache copies appended points, so callers may hand it a slice whose
// backing array is later reallocated; values at already-seen positions
// must not change (prefix extension).
type PrefixCache struct {
	wordLength int
	norm       bool

	series  []float64
	diffs   []float64
	streams map[chanWin]*sfa.CoeffStream
}

// NewPrefixCache returns an empty cache for models whose resolved SFA
// settings match (word length and DC-norm decide the coefficient
// vectors; everything downstream is per-model).
func NewPrefixCache(wordLength int, norm bool) *PrefixCache {
	return &PrefixCache{
		wordLength: wordLength,
		norm:       norm,
		streams:    map[chanWin]*sfa.CoeffStream{},
	}
}

// NewPrefixCache returns a cache keyed to this model's resolved SFA
// settings, shareable with every model NewPrefixEvaluator accepts.
func (m *Model) NewPrefixCache() *PrefixCache {
	return NewPrefixCache(m.cfg.WordLength, m.cfg.SFANorm)
}

// Reserve pre-grows the cache's point buffers to hold n points, so a
// streaming session sized at model registration appends without ever
// reallocating mid-stream.
func (pc *PrefixCache) Reserve(n int) {
	if cap(pc.series) < n {
		s := make([]float64, len(pc.series), n)
		copy(s, pc.series)
		pc.series = s
	}
	if n > 0 && cap(pc.diffs) < n-1 {
		d := make([]float64, len(pc.diffs), n-1)
		copy(d, pc.diffs)
		pc.diffs = d
	}
}

// Extend appends any new points of series (a prefix-extension of what
// previous calls saw) to the cache, growing the derivative channel in
// step.
func (pc *PrefixCache) Extend(series []float64) {
	for i := len(pc.series); i < len(series); i++ {
		pc.series = append(pc.series, series[i])
		if i > 0 {
			pc.diffs = append(pc.diffs, series[i]-series[i-1])
		}
	}
}

// Len reports how many points the cache has seen.
func (pc *PrefixCache) Len() int { return len(pc.series) }

// fakeDeriv is the placeholder derivative channel channelSeries emits
// for prefixes too short to have a first difference.
var fakeDeriv = []float64{0}

// channel returns channel ch of the prefix of length plen, mirroring
// channelSeries: channel 0 is the raw series, channel 1 the first
// differences (a literal [0] when the prefix has fewer than two points).
func (pc *PrefixCache) channel(ch, plen int) []float64 {
	if ch == 0 {
		return pc.series[:plen]
	}
	if plen <= 1 {
		return fakeDeriv
	}
	return pc.diffs[:plen-1]
}

// stream returns the shared coefficient stream for (channel, window),
// creating it on first use.
func (pc *PrefixCache) stream(cw chanWin) *sfa.CoeffStream {
	cs, ok := pc.streams[cw]
	if !ok {
		cs = sfa.NewCoeffStream(cw.window, pc.wordLength, pc.norm)
		pc.streams[cw] = cs
	}
	return cs
}

// PrefixEvaluator scores growing prefixes of one univariate series with
// a fitted model, maintaining the bag-of-patterns incrementally: sliding
// windows only ever append as the prefix grows (unigram words and the
// lag-w bigrams they complete), so each step costs the new windows
// instead of re-bagging the whole prefix. The one non-monotone feature —
// the single truncated word a channel shorter than the window produces —
// is remove-and-replaced. ProbaAt is bit-identical to
// PredictProbaSeries(series[:plen]): same words in the same order, same
// integer counts, same vector, same head.
type PrefixEvaluator struct {
	m    *Model
	pc   *PrefixCache
	bag  map[featKey]float64
	plen int

	states map[chanWin]*cwState

	// vec and proba are per-evaluator scratch for the vocabulary vector
	// and the head's output, so steady-state ProbaAt calls allocate
	// nothing beyond new bag entries.
	vec   []float64
	proba []float64
}

// cwState is the per-(channel, window) progress of one evaluator.
type cwState struct {
	words    []uint64 // words consumed so far, by window start offset
	shortKey featKey  // outstanding truncated-channel word, if any
	hasShort bool
}

// NewPrefixEvaluator returns an evaluator for this fitted model over the
// cache's series, or nil when the model cannot be evaluated
// incrementally: multivariate models take instances rather than one
// series, and a cache fit to different SFA settings would feed the model
// foreign coefficients.
func (m *Model) NewPrefixEvaluator(pc *PrefixCache) *PrefixEvaluator {
	if m.head == nil || m.numVars != 1 {
		return nil
	}
	if m.cfg.WordLength != pc.wordLength || m.cfg.SFANorm != pc.norm {
		return nil
	}
	return &PrefixEvaluator{
		m:      m,
		pc:     pc,
		bag:    map[featKey]float64{},
		plen:   -1,
		states: map[chanWin]*cwState{},
	}
}

// ProbaAt returns the class probabilities of the prefix of length plen,
// exactly PredictProbaSeries(series[:plen]). Calls must not decrease
// plen; plen is clamped to the points the cache has seen.
func (e *PrefixEvaluator) ProbaAt(plen int) []float64 {
	if plen > e.pc.Len() {
		plen = e.pc.Len()
	}
	if plen < e.plen {
		plen = e.plen
	}
	nChannels := 1
	if e.m.cfg.Derivatives {
		nChannels = 2
	}
	for ch := 0; ch < nChannels; ch++ {
		chSeries := e.pc.channel(ch, plen)
		for _, w := range e.m.windowSizes {
			cw := chanWin{channel: ch, window: w}
			tr, ok := e.m.transforms[cw]
			if !ok {
				continue
			}
			st := e.states[cw]
			if st == nil {
				st = &cwState{}
				e.states[cw] = st
			}
			if len(chSeries) <= w {
				// Truncated channel: one word, replaced on every growth
				// step (its coefficients cover the whole channel, so they
				// change as it grows).
				if st.hasShort {
					e.dec(st.shortKey)
				}
				coeffs := sfa.SlidingCoefficients(chSeries, w, e.m.cfg.WordLength, e.m.cfg.SFANorm)
				key := featKey{channel: ch, window: w, w1: tr.WordFromCoefficients(coeffs[0])}
				e.bag[key]++
				st.shortKey, st.hasShort = key, true
				continue
			}
			if st.hasShort {
				e.dec(st.shortKey)
				st.hasShort = false
			}
			cs := e.pc.stream(cw)
			cs.Extend(chSeries)
			for i := len(st.words); i <= len(chSeries)-w; i++ {
				word := tr.WordFromCoefficients(cs.Coeff(i))
				st.words = append(st.words, word)
				e.bag[featKey{channel: ch, window: w, w1: word}]++
				if !e.m.cfg.NoBigrams && i >= w {
					e.bag[featKey{channel: ch, window: w, bigram: true, w1: st.words[i-w], w2: word}]++
				}
			}
		}
	}
	e.plen = plen
	e.vec = e.m.vectorInto(e.vec, e.bag)
	e.proba = e.m.head.PredictProbaInto(e.proba, e.vec)
	return e.proba
}

// dec removes one count of k from the bag, deleting exhausted entries
// (counts are exact small integers, so the comparison is safe).
func (e *PrefixEvaluator) dec(k featKey) {
	if c := e.bag[k] - 1; c <= 0 {
		delete(e.bag, k)
	} else {
		e.bag[k] = c
	}
}
