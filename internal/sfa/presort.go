package sfa

import (
	"math"
	"slices"
)

// SortedColumn is one coefficient position over a pool of windows,
// sorted once so that many fits over subsets of the pool need no sort
// of their own: Values ascending, and IDs[i] the pool index of the
// window Values[i] came from. Tied values are in no particular order.
type SortedColumn struct {
	Values []float64
	IDs    []int32
}

// SortColumn sorts position pos of every coefficient vector in the pool.
// It reports false, and returns no column, when a value is NaN: NaN has
// no place in an ascending order, so such a pool must go through
// FitFromCoefficients.
func SortColumn(coeffs [][]float64, pos int) (SortedColumn, bool) {
	type entry struct {
		v  float64
		id int32
	}
	es := make([]entry, len(coeffs))
	for i, c := range coeffs {
		v := 0.0
		if pos < len(c) {
			v = c[pos]
		}
		if math.IsNaN(v) {
			return SortedColumn{}, false
		}
		es[i] = entry{v: v, id: int32(i)}
	}
	slices.SortFunc(es, func(a, b entry) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})
	col := SortedColumn{Values: make([]float64, len(es)), IDs: make([]int32, len(es))}
	for i, e := range es {
		col.Values[i], col.IDs[i] = e.v, e.id
	}
	return col, true
}

// FitFromSorted is FitFromCoefficients for windows whose columns are
// already sorted: values[pos] holds coefficient position pos of every
// window, ascending, and labels[pos] the label of each value's window.
// Every window's coefficient vector holds len(values) positions, and
// every column has one entry per window.
//
// It learns the boundaries FitFromCoefficients learns from the same
// windows, because that sort leaves ties in no particular order and a
// split only falls between distinct values (see boundariesAt). ±0 tie
// too, and a boundary is the midpoint of two distinct values, where the
// sign of a zero operand does not show.
func FitFromSorted(values [][]float64, labels [][]int, numClasses int, cfg Config) (*Transform, error) {
	cfg = cfg.withDefaults()
	if len(values) == 0 || len(values[0]) == 0 {
		return nil, errNoWindows
	}
	if len(labels) < len(values) {
		return nil, errLabelMismatch
	}
	for pos := range values {
		if len(values[pos]) != len(values[0]) || len(labels[pos]) != len(values[pos]) {
			return nil, errLabelMismatch
		}
	}
	if cfg.Alphabet&(cfg.Alphabet-1) != 0 || cfg.Alphabet > 16 {
		return nil, errBadAlphabet
	}
	actual := min(cfg.WordLength, len(values))
	t := &Transform{cfg: cfg}
	t.cfg.WordLength = actual
	t.bitsPerSym = uint(bits(cfg.Alphabet))
	t.boundaries = make([][]float64, actual)
	sp := newSplitter(len(values[0]), numClasses)
	for pos := 0; pos < actual; pos++ {
		t.boundaries[pos] = sp.boundaries(values[pos], labels[pos], cfg.Alphabet)
	}
	return t, nil
}
