package edsc

import (
	"math"

	"github.com/goetsc/goetsc/internal/core"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

var _ core.IncrementalClassifier = (*Classifier)(nil)

// Begin implements core.IncrementalClassifier. The cursor checks only the
// windows a new point completes — one per shapelet per step instead of
// Classify's full rescan of every prefix — and keeps a running minimum
// distance per shapelet for the no-fire fallback. It reads only shared
// fitted state, so cursors of one model may advance concurrently.
func (c *Classifier) Begin(in ts.Instance) core.Cursor {
	if len(in.Values) != 1 {
		return nil
	}
	cur := &cursor{
		c:          c,
		in:         in,
		minSq:      make([]float64, len(c.shapelets)),
		thrAbandon: make([]float64, len(c.shapelets)),
	}
	for i, sh := range c.shapelets {
		cur.minSq[i] = math.Inf(1)
		// Abandoning a window early is only sound when its partial sum
		// already proves the classic sqrt-comparison cannot fire; the
		// tiny relative margin keeps the proof valid across the rounding
		// of Threshold² and of the square root.
		cur.thrAbandon[i] = sh.Threshold * sh.Threshold * (1 + 1e-9)
	}
	return cur
}

// cursor resumes the prefix sweep of Classify: windows ending at time
// points the previous Advance already processed are never revisited.
type cursor struct {
	c  *Classifier
	in ts.Instance

	t          int       // windows ending at positions <= t are processed
	minSq      []float64 // running min squared distance per shapelet
	thrAbandon []float64

	label    int
	consumed int
	done     bool
}

// Advance implements core.Cursor: identical to Classify on the prefix of
// min(upto, length) points. A window abandons mid-sum only when the
// partial already rules out both a fire (it exceeds the guarded squared
// threshold, so the classic sqrt comparison cannot pass on the full sum)
// and a new minimum (it reached the running min, and squared sums only
// grow); completed sums use the exact classic comparisons, so the fired
// (time, shapelet) pair and the fallback minima match bit for bit.
func (cur *cursor) Advance(upto int) (int, int, bool) {
	if cur.done {
		return cur.label, cur.consumed, true
	}
	s := cur.in.Values[0]
	p := len(s)
	if upto < p {
		p = upto
	}
	// The window loop reads everything from locals sized to the
	// shapelets: the compiler hoists no loads out of loops, so field
	// reads such as cur.minSq[i] would repeat, bounds check included, on
	// every point of every window.
	shapelets := cur.c.shapelets
	minSq, thrAbandon := cur.minSq[:len(shapelets)], cur.thrAbandon[:len(shapelets)]
	for t := cur.t + 1; t <= p; t++ {
		for i := range shapelets {
			sh := &shapelets[i]
			vals := sh.Values
			m := len(vals)
			if t < m {
				continue
			}
			window := s[t-m : t][:m]
			best, thr := minSq[i], thrAbandon[i]
			var sum float64
			abandoned := false
			for j, v := range vals {
				d := v - window[j]
				sum += d * d
				if sum >= best && sum > thr {
					abandoned = true
					break
				}
			}
			if abandoned {
				continue
			}
			if math.Sqrt(sum) <= sh.Threshold {
				cur.t = t
				cur.label, cur.consumed, cur.done = sh.Class, t, true
				return cur.label, cur.consumed, true
			}
			if sum < best {
				minSq[i] = sum
			}
		}
	}
	cur.t = p
	// No shapelet fired inside the prefix: nearest shapelet by the
	// running sliding-window minima, or the majority class when none has
	// a window yet — Classify's fallback, compared on the same square
	// roots it takes.
	best, bestDist := -1, math.Inf(1)
	for i := range cur.minSq {
		if d := math.Sqrt(cur.minSq[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		cur.label, cur.consumed = cur.c.majority, p
	} else {
		cur.label, cur.consumed = cur.c.shapelets[best].Class, p
	}
	return cur.label, cur.consumed, false
}
