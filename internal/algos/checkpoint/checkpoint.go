// Package checkpoint is the scaffold shared by the early classifiers that
// decide at prefix checkpoints: ECEC, TEASER, SR and ECO-K. In Renault et
// al.'s vocabulary each of them is per-checkpoint classifiers plus its
// own trigger, the rule that decides when to stop.
//
// Train is the classifier half of the three WEASEL algorithms: it places
// the checkpoints and fits each one's full-train model and out-of-fold
// class probabilities. The decision half is one checkpoint machine for
// all four: it walks the checkpoints a prefix covers, scores each through
// the algorithm's proba(i, n), and asks a per-instance Trigger at each
// one whether to stop. Every Classify and every training-set replay
// (Trained.Score, ECO-K's choice of K) runs through it, and so do the
// streaming cursors of ECEC and TEASER (Begin).
package checkpoint

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/stats"
	ts "github.com/goetsc/goetsc/internal/timeseries"
	"github.com/goetsc/goetsc/internal/weasel"
)

// Lengths returns the n overlapping checkpoint lengths ceil(i·L/n),
// deduplicated, each at least minLen and at most L. Train uses a minimum
// of 2, as WEASEL needs two points.
func Lengths(length, n, minLen int) []int {
	if n > length {
		n = length
	}
	var out []int
	seen := map[int]bool{}
	for i := 1; i <= n; i++ {
		t := int(math.Ceil(float64(i*length) / float64(n)))
		if t < minLen {
			t = minLen
		}
		if t > length {
			t = length
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Prefix returns the first n points of s, or all of s when it is shorter.
func Prefix(s []float64, n int) []float64 {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// foldAssignment deals each class's shuffled instances round-robin into
// folds.
func foldAssignment(labels []int, numClasses, folds int, rng *rand.Rand) []int {
	byClass := make([][]int, numClasses)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	out := make([]int, len(labels))
	for _, idxs := range byClass {
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for pos, idx := range idxs {
			out[idx] = pos % folds
		}
	}
	return out
}

// Trained is the classifier half fitted on one univariate training set.
type Trained struct {
	NumClasses int
	Length     int   // longest training series
	Lengths    []int // checkpoint lengths
	Labels     []int
	Models     []*weasel.Model // full-train model per checkpoint
	// OOF[i][j] is training instance j's out-of-fold class probabilities
	// at checkpoint i.
	OOF [][][]float64
}

// Train places n checkpoints over the univariate training set and fits,
// at each, a WEASEL model (configured by cfgAt) on the whole set and one
// per internal cross-validation fold. The stratified folds are drawn once
// at seed+1 and shared by every checkpoint, so an instance's out-of-fold
// probability sequence is coherent across checkpoints. When the series
// share a length and every checkpoint the same SFA settings, all fits
// and predictions share one weasel.Shared, with the same results.
func Train(train *ts.Dataset, n, cvFolds int, seed int64, cfgAt func(i int) weasel.Config) (*Trained, error) {
	if train.NumVars() != 1 {
		return nil, fmt.Errorf("univariate algorithm got %d variables (use the voting wrapper)", train.NumVars())
	}
	t := &Trained{NumClasses: train.NumClasses(), Length: train.MaxLength()}
	if t.NumClasses < 2 {
		return nil, fmt.Errorf("need at least 2 classes")
	}
	t.Lengths = Lengths(t.Length, n, 2)
	count := train.Len()
	series := make([][]float64, count)
	t.Labels = make([]int, count)
	for j, in := range train.Instances {
		series[j] = in.Values[0]
		t.Labels[j] = in.Label
	}
	folds := min(cvFolds, count)
	if folds < 2 {
		return nil, fmt.Errorf("need at least 2 training series")
	}
	assignment := foldAssignment(t.Labels, t.NumClasses, folds, rand.New(rand.NewSource(seed+1)))

	fit, predict := perFitWork(series, t.Labels, t.NumClasses)
	cfgs := make([]weasel.Config, len(t.Lengths))
	for i := range cfgs {
		cfgs[i] = cfgAt(i)
	}
	if sameSFA(cfgs) {
		if sh := weasel.NewShared(series, t.Labels, t.NumClasses, cfgs[0], t.Lengths); sh != nil {
			fit, predict = sh.Fit, sh.PredictProba
		}
	}

	all := make([]int, count)
	for j := range all {
		all[j] = j
	}
	t.Models = make([]*weasel.Model, len(t.Lengths))
	t.OOF = make([][][]float64, len(t.Lengths))
	for i, plen := range t.Lengths {
		cfg := cfgs[i]
		m, err := fit(cfg, all, plen)
		if err != nil {
			return nil, fmt.Errorf("prefix %d: %w", plen, err)
		}
		t.Models[i] = m
		probs := make([][]float64, count)
		for f := 0; f < folds; f++ {
			var trIdx, teIdx []int
			for j := range series {
				if assignment[j] == f {
					teIdx = append(teIdx, j)
				} else {
					trIdx = append(trIdx, j)
				}
			}
			if len(teIdx) == 0 {
				continue
			}
			fm, err := fit(cfg, trIdx, plen)
			if err != nil {
				return nil, fmt.Errorf("prefix %d fold %d: %w", plen, f, err)
			}
			for _, j := range teIdx {
				probs[j] = predict(fm, j, plen)
			}
		}
		t.OOF[i] = probs
	}
	return t, nil
}

// sameSFA reports whether every checkpoint's configuration shares its
// SFA settings, so that one weasel.Shared serves them all.
func sameSFA(cfgs []weasel.Config) bool {
	for _, c := range cfgs {
		if !weasel.SameSFA(c, cfgs[0]) {
			return false
		}
	}
	return true
}

// perFitWork fits and predicts each truncated series on its own, for a
// training set whose checkpoints cannot share their SFA work: series of
// differing lengths, or SFA settings that change between checkpoints.
func perFitWork(series [][]float64, labels []int, numClasses int) (
	fit func(cfg weasel.Config, members []int, plen int) (*weasel.Model, error),
	predict func(m *weasel.Model, j, plen int) []float64,
) {
	fit = func(cfg weasel.Config, members []int, plen int) (*weasel.Model, error) {
		trX := make([][]float64, len(members))
		trY := make([]int, len(members))
		for a, j := range members {
			trX[a], trY[a] = Prefix(series[j], plen), labels[j]
		}
		m := weasel.New(cfg)
		if err := m.FitSeries(trX, trY, numClasses); err != nil {
			return nil, err
		}
		return m, nil
	}
	predict = func(m *weasel.Model, j, plen int) []float64 {
		return m.PredictProbaSeries(Prefix(series[j], plen))
	}
	return fit, predict
}

// Score replays a fresh trigger from newTrigger over every training
// instance's out-of-fold probabilities and returns the number of correct
// decisions and the sum of their earliness, consumed/Length.
func (t *Trained) Score(newTrigger func() Trigger) (correct int, earliness float64) {
	for j, y := range t.Labels {
		m := machine{lengths: t.Lengths, trigger: newTrigger(), proba: func(i, _ int) []float64 { return t.OOF[i][j] }}
		label, consumed, _ := m.Advance(t.Length)
		if label == y {
			correct++
		}
		earliness += float64(consumed) / float64(t.Length)
	}
	return correct, earliness
}

// Trigger is one instance's stopping rule. The machine calls Stop once
// per covered checkpoint, in order, with the checkpoint model's class
// probabilities and their argmax; it never calls it at the last
// checkpoint, which always stops.
type Trigger interface {
	Stop(i, label int, probs []float64) bool
}

// machine walks one instance's checkpoints as its prefix grows. A
// checkpoint is covered once the prefix reaches its length, and each is
// scored exactly once. Before the first checkpoint the pending verdict is
// the first model's argmax on the whole prefix; after it, the label of
// the last covered checkpoint.
//
// With pastEnd set, a prefix shorter than the last checkpoint has no
// pending verdict: the machine goes on through the uncovered checkpoints
// in order, scoring each with proba at its own length (the algorithm
// decides what that means for a short series), until the trigger or the
// last checkpoint stops it; consumed is clamped to the prefix.
type machine struct {
	lengths []int
	trigger Trigger
	proba   func(i, n int) []float64 // checkpoint i's model on the first n points
	pastEnd bool

	covered  int
	last     int
	label    int
	consumed int
	done     bool
}

// Advance reports the decision on the first p points: (label, consumed,
// true) once a checkpoint stopped, else the pending verdict with
// consumed = p. A stopped machine keeps its decision; p must not shrink.
func (m *machine) Advance(p int) (label, consumed int, done bool) {
	if m.done {
		return m.label, m.consumed, true
	}
	last := len(m.lengths) - 1
	for m.covered <= last && (m.lengths[m.covered] <= p || m.pastEnd) {
		i, n := m.covered, m.lengths[m.covered]
		probs := m.proba(i, n)
		m.last = stats.ArgMax(probs)
		m.covered++
		if i == last || m.trigger.Stop(i, m.last, probs) {
			m.label, m.consumed, m.done = m.last, min(n, p), true
			return m.label, m.consumed, true
		}
	}
	if m.covered == 0 {
		m.label = stats.ArgMax(m.proba(0, p))
	} else {
		m.label = m.last
	}
	m.consumed = p
	return m.label, p, false
}

// Classify runs a fresh machine over the first p points of an instance
// whose checkpoint i scores its first n points with proba(i, n). pastEnd
// is the algorithm's rule for a prefix shorter than the last checkpoint
// (see machine).
func Classify(lengths []int, p int, proba func(i, n int) []float64, trigger Trigger, pastEnd bool) (label, consumed int) {
	m := machine{lengths: lengths, trigger: trigger, proba: proba, pastEnd: pastEnd}
	label, consumed, _ = m.Advance(p)
	return label, consumed
}

// WeaselProba scores checkpoint i with models[i] on the first n points of
// s, or on all of s when it is shorter.
func WeaselProba(models []*weasel.Model, s []float64) func(i, n int) []float64 {
	return func(i, n int) []float64 { return models[i].PredictProbaSeries(Prefix(s, n)) }
}

// Begin returns a streaming cursor over a univariate instance that feeds
// the machine from weasel.PrefixEvaluators sharing one PrefixCache, so
// the sliding-window Fourier work is paid once for all checkpoints and
// each checkpoint is evaluated once. It returns nil (leaving the instance
// to the generic fallback cursor) for a multivariate instance or when a
// model cannot be evaluated incrementally.
func Begin(models []*weasel.Model, lengths []int, length int, in ts.Instance, trigger Trigger) core.Cursor {
	if len(models) == 0 || len(in.Values) != 1 {
		return nil
	}
	pc := models[0].NewPrefixCache()
	pc.Reserve(length) // full-session capacity: no mid-stream reallocs
	evals := make([]*weasel.PrefixEvaluator, len(models))
	for i, m := range models {
		if evals[i] = m.NewPrefixEvaluator(pc); evals[i] == nil {
			return nil
		}
	}
	proba := func(i, n int) []float64 { return evals[i].ProbaAt(n) }
	return &cursor{in: in, pc: pc, m: machine{lengths: lengths, trigger: trigger, proba: proba}}
}

// cursor extends the shared prefix cache with newly appended points
// before advancing the machine.
type cursor struct {
	in ts.Instance
	pc *weasel.PrefixCache
	m  machine
}

// Advance implements core.Cursor: identical to Classify on the prefix of
// min(upto, length) points.
func (c *cursor) Advance(upto int) (int, int, bool) {
	if c.m.done {
		return c.m.label, c.m.consumed, true
	}
	s := c.in.Values[0]
	c.pc.Extend(s)
	return c.m.Advance(min(upto, len(s)))
}
