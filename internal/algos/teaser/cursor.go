package teaser

import (
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

var _ core.IncrementalClassifier = (*Classifier)(nil)

// Begin implements core.IncrementalClassifier. A checkpoint's verdict
// depends only on the prefix it covers, so the cursor evaluates each
// pipeline exactly once — through a weasel.PrefixEvaluator so the
// sliding-window Fourier work is shared across all S pipelines via one
// PrefixCache — and replays the two-tier accept/consistency machine as
// checkpoints come into coverage. It returns nil when any pipeline
// cannot be evaluated incrementally (see weasel.NewPrefixEvaluator),
// leaving those configurations to the generic fallback cursor.
func (c *Classifier) Begin(in ts.Instance) core.Cursor {
	if len(c.pipelines) == 0 || len(in.Values) != 1 {
		return nil
	}
	pc := c.pipelines[0].NewPrefixCache()
	pc.Reserve(c.length) // full-session capacity: no mid-stream reallocs
	evals := make([]*weasel.PrefixEvaluator, len(c.pipelines))
	for i, m := range c.pipelines {
		if evals[i] = m.NewPrefixEvaluator(pc); evals[i] == nil {
			return nil
		}
	}
	return &cursor{c: c, in: in, pc: pc, evals: evals, streakLabel: -1}
}

// cursor carries the streak machine across Advances; covered checkpoints
// are never re-evaluated.
type cursor struct {
	c     *Classifier
	in    ts.Instance
	pc    *weasel.PrefixCache
	evals []*weasel.PrefixEvaluator

	covered     int // checkpoints whose prefix fits the observed data
	streak      int
	streakLabel int
	lastLabel   int

	label    int
	consumed int
	done     bool
}

// Advance implements core.Cursor: identical to Classify on the prefix of
// min(upto, length) points. Covered checkpoints commit through the exact
// classic rules (final checkpoint bypasses both tiers; an accepted streak
// of v commits). While the prefix is shorter than the first checkpoint,
// Classify's case analysis collapses every path to "first pipeline's
// argmax on the whole prefix" — the pending verdict here; past the first
// checkpoint the pending verdict is the latest covered label, Classify's
// bail-out.
func (cur *cursor) Advance(upto int) (int, int, bool) {
	if cur.done {
		return cur.label, cur.consumed, true
	}
	s := cur.in.Values[0]
	cur.pc.Extend(s)
	p := len(s)
	if upto < p {
		p = upto
	}
	for cur.covered < len(cur.c.prefixes) && cur.c.prefixes[cur.covered] <= p {
		pi := cur.covered
		plen := cur.c.prefixes[pi]
		probs := cur.evals[pi].ProbaAt(plen)
		label := stats.ArgMax(probs)
		cur.lastLabel = label
		cur.covered++
		if pi == len(cur.c.prefixes)-1 {
			cur.label, cur.consumed, cur.done = label, plen, true
			return label, plen, true
		}
		if cur.c.accept(pi, probs) {
			if label == cur.streakLabel {
				cur.streak++
			} else {
				cur.streak, cur.streakLabel = 1, label
			}
			if cur.streak >= cur.c.v {
				cur.label, cur.consumed, cur.done = label, plen, true
				return label, plen, true
			}
		} else {
			cur.streak, cur.streakLabel = 0, -1
		}
	}
	if cur.covered == 0 {
		cur.label, cur.consumed = stats.ArgMax(cur.evals[0].ProbaAt(p)), p
		return cur.label, cur.consumed, false
	}
	cur.label, cur.consumed = cur.lastLabel, p
	return cur.label, cur.consumed, false
}
