package weasel

import (
	"fmt"

	"github.com/goetsc/goetsc/internal/logreg"
	"github.com/goetsc/goetsc/internal/sfa"
)

// Shared is the SFA work that many univariate fits over prefixes of one
// training set have in common. A checkpoint classifier fits, at each
// prefix length, a model on every series and one per cross-validation
// fold, then predicts each held-out series: every one of those calls
// transforms prefixes of the same series.
//
// Sliding-window coefficients are prefix-deterministic (sfa anchors its
// resyncs at absolute window positions), so Shared computes each
// (series, channel, window size) once, as far as the longest prefix
// that uses it, and every fit and prediction reads a slice of it. It
// also sorts each coefficient position once over every series' windows;
// a fit keeps its own windows from that order instead of sorting them
// again (sfa.FitFromSorted says why the result is the same). A column
// is built on first use and released once no longer prefix uses it, so
// only the current checkpoint's window sizes are held at a time.
//
// Where a prefix is not longer than a window, it has a single truncated
// window, which is not a prefix of the longer series' windows: those
// (channel, window size) pairs are transformed per call, as in Fit. A
// column holding a NaN has no sorted order and is fitted as in Fit too.
//
// Fit and PredictProba equal FitSeries and PredictProbaSeries on the
// truncated series bit for bit. A Shared is not safe for concurrent use.
type Shared struct {
	cfg        Config // resolved
	numClasses int
	labels     []int
	series     [][][]float64 // [series][channel] at full length

	// need[cw] is how many windows per series the longest prefix that
	// uses (channel, window size) cw reads, and last[cw] that prefix's
	// length. cols holds the columns built so far for prefixes of
	// length plen and longer.
	need, last map[chanWin]int
	cols       map[chanWin]*sharedColumn
	plen       int

	// Buffers of the sorted-column fits; a column has at most
	// WordLength positions.
	member []bool
	values [][]float64
	lbls   [][]int
}

// sharedColumn is one (channel, window size) over every series.
type sharedColumn struct {
	coeffs [][][]float64 // [series][window]
	// sorted[pos] holds coefficient position pos over every series'
	// windows, ascending, with each value's series and window index;
	// nil when a value is NaN.
	sorted []sortedPos
}

type sortedPos struct {
	values      []float64
	series, win []int32
}

// SameSFA reports whether two configurations give the same SFA words and
// vocabulary, differing at most in the logistic-regression head.
func SameSFA(a, b Config) bool {
	a.LogReg, b.LogReg = logreg.Config{}, logreg.Config{}
	return a == b
}

// NewShared prepares the shared work for fits with SFA settings cfg over
// prefixes of series, of the given lengths. It returns nil when the
// series differ in length or there are none.
func NewShared(series [][]float64, labels []int, numClasses int, cfg Config, lengths []int) *Shared {
	if len(series) == 0 || len(series) != len(labels) {
		return nil
	}
	for _, s := range series {
		if len(s) != len(series[0]) {
			return nil
		}
	}
	cfg = cfg.withDefaults()
	sh := &Shared{
		cfg:        cfg,
		numClasses: numClasses,
		labels:     labels,
		series:     make([][][]float64, len(series)),
		need:       map[chanWin]int{},
		last:       map[chanWin]int{},
		cols:       map[chanWin]*sharedColumn{},
		member:     make([]bool, len(series)),
		values:     make([][]float64, cfg.WordLength),
		lbls:       make([][]int, cfg.WordLength),
	}
	expand := &Model{cfg: cfg}
	for i, s := range series {
		sh.series[i] = expand.channelSeries([][]float64{s})
	}
	for _, plen := range lengths {
		for _, w := range sh.windowSizes(plen) {
			for ch := range sh.series[0] {
				if n := sh.channelLen(ch, plen); n > w && n-w+1 > sh.need[chanWin{ch, w}] {
					sh.need[chanWin{ch, w}], sh.last[chanWin{ch, w}] = n-w+1, plen
				}
			}
		}
	}
	return sh
}

// column returns the shared (channel, window size) column for prefixes
// of length plen, built on first use, or nil when the prefix is not
// longer than the window or longer than any length NewShared was given.
// A call for a new plen first releases the columns no prefix from plen
// on uses: checkpoints run in ascending length, so a column lives only
// as long as its checkpoints, and a caller that goes back rebuilds it.
func (sh *Shared) column(ch, w, plen int) *sharedColumn {
	if plen != sh.plen {
		for cw := range sh.cols {
			if sh.last[cw] < plen {
				delete(sh.cols, cw)
			}
		}
		sh.plen = plen
	}
	cw := chanWin{ch, w}
	if n := sh.channelLen(ch, plen); n <= w || n-w+1 > sh.need[cw] {
		return nil
	}
	col := sh.cols[cw]
	if col == nil {
		col = sh.build(cw, sh.need[cw])
		sh.cols[cw] = col
	}
	return col
}

// build computes nWin windows of (channel, window size) cw for every
// series and sorts each position over all of them.
func (sh *Shared) build(cw chanWin, nWin int) *sharedColumn {
	col := &sharedColumn{coeffs: make([][][]float64, len(sh.series))}
	pool := make([][]float64, 0, len(sh.series)*nWin)
	for i, chans := range sh.series {
		// nWin >= 2, so the prefix is longer than the window.
		col.coeffs[i] = sfa.SlidingCoefficients(chans[cw.channel][:cw.window+nWin-1], cw.window, sh.cfg.WordLength, sh.cfg.SFANorm)
		pool = append(pool, col.coeffs[i]...)
	}
	positions := min(sh.cfg.WordLength, len(pool[0]))
	for pos := 0; pos < positions; pos++ {
		sc, ok := sfa.SortColumn(pool, pos)
		if !ok {
			col.sorted = nil
			break
		}
		sp := sortedPos{values: sc.Values, series: make([]int32, len(sc.IDs)), win: sc.IDs}
		for x, id := range sc.IDs {
			sp.series[x], sp.win[x] = id/int32(nWin), id%int32(nWin)
		}
		col.sorted = append(col.sorted, sp)
	}
	return col
}

// windowSizes are the window sizes of a fit on prefixes of length plen.
func (sh *Shared) windowSizes(plen int) []int {
	maxLen := 0
	for ch := range sh.series[0] {
		maxLen = max(maxLen, sh.channelLen(ch, plen))
	}
	return windowSizes(sh.cfg.MinWindow, maxLen, sh.cfg.MaxWindows)
}

// channelLen is the length of channel ch of a prefix of length plen, as
// channelSeries builds it.
func (sh *Shared) channelLen(ch, plen int) int {
	if ch == 0 {
		return plen
	}
	return max(plen-1, 1)
}

// channel returns channel ch of series i's prefix of length plen.
func (sh *Shared) channel(i, ch, plen int) []float64 {
	if ch == 0 {
		return sh.series[i][0][:plen]
	}
	if plen <= 1 {
		return fakeDeriv
	}
	return sh.series[i][1][:plen-1]
}

// coeffs returns the sliding coefficient vectors of (channel, window
// size) for series i's prefix of length plen.
func (sh *Shared) coeffs(i, ch, w, plen int) [][]float64 {
	if col := sh.column(ch, w, plen); col != nil {
		return col.coeffs[i][:sh.channelLen(ch, plen)-w+1]
	}
	return sfa.SlidingCoefficients(sh.channel(i, ch, plen), w, sh.cfg.WordLength, sh.cfg.SFANorm)
}

// Fit is New(cfg).FitSeries on the prefixes of length plen of the
// member series (ascending indices); cfg must share the SFA settings
// NewShared was given. A plen that is not one of NewShared's lengths
// takes the per-fit path where its windows outrun the shared columns.
func (sh *Shared) Fit(cfg Config, members []int, plen int) (*Model, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("weasel: no instances")
	}
	if sh.numClasses < 2 {
		return nil, fmt.Errorf("weasel: need at least 2 classes, got %d", sh.numClasses)
	}
	m := New(cfg)
	m.cfg = cfg.withDefaults()
	if !SameSFA(m.cfg, sh.cfg) {
		return nil, fmt.Errorf("weasel: fit's SFA settings differ from the shared work's")
	}
	m.numClasses = sh.numClasses
	m.numVars = 1
	m.windowSizes = sh.windowSizes(plen)
	labels := make([]int, len(members))
	for a, i := range members {
		labels[a] = sh.labels[i]
	}
	err := m.fit(len(sh.series[0]), labels, sh.numClasses, func(ch, w int) ([][][]float64, *sfa.Transform, error) {
		coeffsPer := make([][][]float64, len(members))
		for a, i := range members {
			coeffsPer[a] = sh.coeffs(i, ch, w, plen)
		}
		col := sh.column(ch, w, plen)
		if col == nil || col.sorted == nil {
			tr, err := fitTransform(coeffsPer, labels, sh.numClasses, m.cfg)
			return coeffsPer, tr, err
		}
		tr, err := sh.fitSorted(col, members, sh.channelLen(ch, plen)-w+1)
		return coeffsPer, tr, err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// fitSorted is fitTransform from the presorted columns: it keeps, in
// order, each window of a member series whose index is below nWin and a
// multiple of the fit's stride.
func (sh *Shared) fitSorted(col *sharedColumn, members []int, nWin int) (*sfa.Transform, error) {
	stride := int32(fitStride(len(members)*nWin, sh.cfg))
	for _, i := range members {
		sh.member[i] = true
	}
	defer clear(sh.member)
	limit := int32(nWin)
	for pos, sp := range col.sorted {
		vals, lbls := sh.values[pos][:0], sh.lbls[pos][:0]
		series, win := sp.series[:len(sp.values)], sp.win[:len(sp.values)]
		for x, v := range sp.values {
			s, k := series[x], win[x]
			if !sh.member[s] || k >= limit || (stride > 1 && k%stride != 0) {
				continue
			}
			vals = append(vals, v)
			lbls = append(lbls, sh.labels[s])
		}
		sh.values[pos], sh.lbls[pos] = vals, lbls
	}
	return sfa.FitFromSorted(sh.values[:len(col.sorted)], sh.lbls[:len(col.sorted)], sh.numClasses, sfaConfig(sh.cfg))
}

// PredictProba is m.PredictProbaSeries on series i's prefix of length
// plen, for a model from Fit.
func (sh *Shared) PredictProba(m *Model, i, plen int) []float64 {
	bag := m.bagOf(len(sh.series[i]), func(ch, w int) [][]float64 { return sh.coeffs(i, ch, w, plen) })
	return m.head.PredictProba(m.vector(bag))
}
