// Package minirocket implements the MiniROCKET transform (Dempster,
// Schmidt & Webb, KDD 2021): a fixed set of 84 dilated convolutional
// kernels of length 9 with weights {-1, 2}, bias thresholds drawn from
// training convolution quantiles, and "proportion of positive values"
// (PPV) pooling, classified by a ridge head. Multivariate input is handled
// with random channel subsets per kernel/dilation combination, as in the
// reference implementation.
package minirocket

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/goetsc/goetsc/internal/ridge"
	"github.com/goetsc/goetsc/internal/sched"
	"github.com/goetsc/goetsc/internal/stats"
)

const (
	kernelLength = 9
	numKernels   = 84 // C(9,3) choices of the three weight-2 positions
)

// Config controls the transform.
type Config struct {
	// NumFeatures is the approximate total PPV feature count; default 2520
	// (84 kernels × 30). The reference default of ~10k is supported but
	// slower; accuracy saturates well before that on the datasets used
	// here.
	NumFeatures int
	// RidgeLambda is the head's L2 penalty; default 1.
	RidgeLambda float64
	// Seed drives bias sampling and channel-subset selection.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumFeatures <= 0 {
		c.NumFeatures = 2520
	}
	if c.RidgeLambda <= 0 {
		c.RidgeLambda = 1
	}
	return c
}

// combo is one (kernel, dilation, padding, channels) combination with its
// bias thresholds; each bias yields one PPV feature.
type combo struct {
	kernel   int
	dilation int
	padding  bool
	channels []int
	biases   []float64
}

// Model is a fitted MiniROCKET classifier.
type Model struct {
	Cfg Config

	kernels [numKernels][3]int
	combos  []combo
	head    *ridge.Model
	numVars int

	// scratchPool recycles per-transform workspaces so concurrent
	// Transform calls (batch fits, serving) never contend on one buffer
	// and steady-state transforms stay allocation-free.
	scratchPool sync.Pool
}

// scratch is the per-transform workspace: one convolution buffer, one
// PPV histogram, the shared 9-tap base for the univariate fast path, and
// the channel pre-sum for multivariate combos.
type scratch struct {
	conv  []float64
	hist  []int
	base  []float64
	chsum []float64
}

func (m *Model) getScratch() *scratch {
	if sc, _ := m.scratchPool.Get().(*scratch); sc != nil {
		return sc
	}
	return &scratch{}
}

// New returns an untrained model.
func New(cfg Config) *Model {
	m := &Model{Cfg: cfg}
	m.initKernels()
	return m
}

// initKernels enumerates the 84 kernels: positions of the three weight-2
// taps. The enumeration is deterministic, so deserialization recomputes it
// instead of storing it.
func (m *Model) initKernels() {
	idx := 0
	for a := 0; a < kernelLength; a++ {
		for b := a + 1; b < kernelLength; b++ {
			for c := b + 1; c < kernelLength; c++ {
				m.kernels[idx] = [3]int{a, b, c}
				idx++
			}
		}
	}
}

// Fit learns bias quantiles from the training instances and trains the
// ridge head. Instances are indexed [instance][variable][time].
func (m *Model) Fit(instances [][][]float64, labels []int, numClasses int) error {
	if len(instances) == 0 {
		return fmt.Errorf("minirocket: no instances")
	}
	if len(instances) != len(labels) {
		return fmt.Errorf("minirocket: %d instances but %d labels", len(instances), len(labels))
	}
	if numClasses < 2 {
		return fmt.Errorf("minirocket: need at least 2 classes, got %d", numClasses)
	}
	cfg := m.Cfg.withDefaults()
	m.numVars = len(instances[0])
	if m.numVars == 0 {
		return fmt.Errorf("minirocket: instances have no variables")
	}
	minLen := math.MaxInt
	for _, inst := range instances {
		if len(inst) != m.numVars {
			return fmt.Errorf("minirocket: inconsistent variable counts")
		}
		if l := len(inst[0]); l < minLen {
			minLen = l
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Exponentially spaced dilations such that the kernel span fits.
	dilations := []int{1}
	for d := 2; (kernelLength-1)*d < minLen; d *= 2 {
		dilations = append(dilations, d)
	}
	nCombos := numKernels * len(dilations)
	biasesPerCombo := cfg.NumFeatures / nCombos
	if biasesPerCombo < 1 {
		biasesPerCombo = 1
	}

	// Sample up to 10 training instances per combo for bias quantiles.
	sampleCount := 10
	if sampleCount > len(instances) {
		sampleCount = len(instances)
	}

	// The pool convolves through the kernels Transform uses. A univariate
	// instance's 9-tap base is built once per dilation, on its first draw:
	// bases[i] holds instance i's base for dilation baseDil[i].
	var pool []float64
	sc := &scratch{}
	bases := make([][]float64, len(instances))
	baseDil := make([]int, len(instances))
	pos := make([]int, biasesPerCombo)
	m.combos = make([]combo, 0, nCombos)
	comboIdx := 0
	for _, d := range dilations {
		for k := 0; k < numKernels; k++ {
			cb := combo{
				kernel:   k,
				dilation: d,
				padding:  comboIdx%2 == 0,
				channels: m.pickChannels(rng),
			}
			// Collect convolution outputs from sampled instances.
			pool = pool[:0]
			for s := 0; s < sampleCount; s++ {
				i := rng.Intn(len(instances))
				inst := instances[i]
				if usesBase(inst, &cb) && baseDil[i] != d {
					bases[i] = sumAllInto(bases[i], inst[0], d)
					baseDil[i] = d
				}
				sc.conv = m.convolve(sc, inst, &cb, bases[i])
				pool = append(pool, sc.conv...)
			}
			if len(pool) == 0 {
				pool = append(pool, 0)
			}
			for b := range pos {
				// Low-discrepancy quantile positions, as in the reference.
				q := (float64(b) + 0.5) / float64(biasesPerCombo)
				pos[b] = int(q * float64(len(pool)-1))
			}
			cb.biases = make([]float64, biasesPerCombo)
			orderStats(cb.biases, pool, pos)
			m.combos = append(m.combos, cb)
			comboIdx++
		}
	}

	// Transform the training set — the dominant cost of Fit — in parallel
	// over instances. Each row is independent and lands in its own slot,
	// so the feature matrix is identical at any worker count.
	X := m.TransformBatch(instances)
	m.head = ridge.New(ridge.Config{Lambda: cfg.RidgeLambda, Standardize: true})
	return m.head.Fit(X, labels, numClasses)
}

// pickChannels selects a random channel subset (log-uniform size), the
// multivariate MiniROCKET scheme. Univariate input always uses channel 0.
func (m *Model) pickChannels(rng *rand.Rand) []int {
	if m.numVars == 1 {
		return []int{0}
	}
	maxExp := int(math.Log2(float64(m.numVars))) + 1
	size := 1 << rng.Intn(maxExp)
	if size > m.numVars {
		size = m.numVars
	}
	perm := rng.Perm(m.numVars)
	channels := append([]int(nil), perm[:size]...)
	sort.Ints(channels)
	return channels
}

// Transform maps one instance to its PPV feature vector.
//
// Fast path: a combo's biases come from quantile positions of a sorted
// pool, so they are non-decreasing — each convolution output v falls in
// one bucket among the b biases, found by counting the biases below it,
// and every per-bias positive count falls out of one prefix sum over the
// buckets, with the integer counts of the naive O(n·b) loop and
// therefore bit-identical features. Convolutions run over flat
// structure-of-arrays buffers: univariate combos share one 9-tap base
// per dilation (combos are dilation-major, so it is computed once and
// reused by all 84 kernels), and multi-channel combos pre-sum their
// channel subset into one contiguous series first. Both reshapes keep
// every floating-point addition in the original order, so features stay
// bit-identical to the seed implementation.
func (m *Model) Transform(instance [][]float64) []float64 {
	return m.TransformInto(nil, instance)
}

// TransformInto appends the PPV feature vector into dst[:0] and returns
// it, so a caller-held buffer makes repeated transforms allocation-free.
func (m *Model) TransformInto(dst []float64, instance [][]float64) []float64 {
	if dst == nil {
		dst = make([]float64, 0, m.NumFeatures())
	}
	sc := m.getScratch()
	out := m.transformInto(dst[:0], instance, sc)
	m.scratchPool.Put(sc)
	return out
}

// TransformBatch transforms a batch of instances in parallel over the
// shared worker pool, one pooled scratch per task; out[i] is
// bit-identical to Transform(instances[i]) at any worker count.
func (m *Model) TransformBatch(instances [][][]float64) [][]float64 {
	out := make([][]float64, len(instances))
	for i := range out {
		out[i] = make([]float64, 0, m.NumFeatures())
	}
	m.TransformBatchInto(out, instances)
	return out
}

// TransformBatchInto fills out[i] (reusing its capacity) with the
// feature vector of instances[i]. len(out) must equal len(instances).
func (m *Model) TransformBatchInto(out [][]float64, instances [][][]float64) {
	sched.Shared().ForEach(len(instances), func(i int) {
		sc := m.getScratch()
		out[i] = m.transformInto(out[i][:0], instances[i], sc)
		m.scratchPool.Put(sc)
	})
}

// PredictProbaBatch returns class probabilities for a batch of
// instances, sharing transform scratch across the batch.
func (m *Model) PredictProbaBatch(instances [][][]float64) [][]float64 {
	out := make([][]float64, len(instances))
	nf := m.NumFeatures()
	sched.Shared().ForEach(len(instances), func(i int) {
		sc := m.getScratch()
		feat := m.transformInto(make([]float64, 0, nf), instances[i], sc)
		m.scratchPool.Put(sc)
		out[i] = m.head.PredictProba(feat)
	})
	return out
}

func (m *Model) transformInto(features []float64, instance [][]float64, sc *scratch) []float64 {
	lastDil := 0 // no combo has dilation 0, so the first always builds a base
	for ci := range m.combos {
		cb := &m.combos[ci]
		// Combos are dilation-major, so one base serves all 84 kernels
		// of a dilation.
		if usesBase(instance, cb) && cb.dilation != lastDil {
			sc.base = sumAllInto(sc.base, instance[0], cb.dilation)
			lastDil = cb.dilation
		}
		sc.conv = m.convolve(sc, instance, cb, sc.base)
		features = appendPPV(features, sc.conv, cb.biases, sc)
	}
	return features
}

// usesBase reports whether cb convolves a univariate instance through
// convolveFromBase, which needs the instance's 9-tap base for
// cb.dilation (sumAllInto).
func usesBase(instance [][]float64, cb *combo) bool {
	return len(instance) == 1 && len(cb.channels) == 1 && cb.channels[0] == 0
}

// convolve returns cb's convolution of instance in sc.conv's storage.
// A univariate instance takes the shared base (usesBase; base is ignored
// otherwise) and only adds each kernel's three weight-2 taps; a single
// channel of a multivariate instance runs the single-series kernel; a
// channel subset is first pre-summed into one contiguous series, per
// time point in the ascending-channel order of the seed's nested loop.
// All three keep every floating-point addition in the seed's order, so
// their outputs are bit-identical to it.
func (m *Model) convolve(sc *scratch, instance [][]float64, cb *combo, base []float64) []float64 {
	pos := m.kernels[cb.kernel]
	switch {
	case usesBase(instance, cb):
		return convolveFromBase(sc.conv, instance[0], base, pos, cb.dilation, cb.padding)
	case len(cb.channels) == 1 && cb.channels[0] < len(instance):
		return convolveSeries(sc.conv, instance[cb.channels[0]], pos, cb.dilation, cb.padding)
	default:
		sc.chsum = channelSumInto(sc.chsum, instance, cb.channels)
		return convolveSeries(sc.conv, sc.chsum, pos, cb.dilation, cb.padding)
	}
}

// appendPPV appends one PPV feature per bias for the given convolution
// outputs: the histogram + prefix sum described on Transform. Biases that
// are not ascending, or hold a NaN, take the naive loop; a model with
// hand-edited biases keeps its exact semantics that way.
func appendPPV(features []float64, conv, biases []float64, sc *scratch) []float64 {
	n := len(conv)
	b := len(biases)
	if n == 0 {
		for i := 0; i < b; i++ {
			features = append(features, 0)
		}
		return features
	}
	if !ascending(biases) {
		for _, bias := range biases {
			positive := 0
			for _, v := range conv {
				if v > bias {
					positive++
				}
			}
			features = append(features, float64(positive)/float64(n))
		}
		return features
	}
	hist := sc.hist // hist[k]: conv values exceeding exactly the first k biases
	if cap(hist) < b+1 {
		hist = make([]int, b+1)
	}
	hist = hist[:b+1]
	clear(hist)
	// Histogram pass: bucket every conv value by the count of biases
	// strictly below it, so one sweep replaces all b positive-count
	// loops. The count is one compare and one conditional move per bias,
	// with no branch on the data; a NaN exceeds no bias and lands in
	// bucket 0.
	for _, v := range conv {
		k := 0
		for _, bias := range biases {
			k += b2i(bias < v)
		}
		hist[k]++
	}
	sc.hist = hist
	// prefix(hist[0..i]) counts values at or below biases[i], so the
	// positive count for bias i is n - prefix — the same integers the
	// naive v > bias loop produces, divided identically.
	prefix := 0
	for i := 0; i < b; i++ {
		prefix += hist[i]
		features = append(features, float64(n-prefix)/float64(n))
	}
	return features
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ascending reports whether biases are non-decreasing and hold no NaN.
func ascending(biases []float64) bool {
	for i, v := range biases {
		if v != v || i > 0 && biases[i-1] > v {
			return false
		}
	}
	return true
}

// convRegion returns the output region [start, end) and the interior
// sub-region [ilo, ihi) where all nine taps are in range, with
// start <= ilo <= ihi <= end.
func convRegion(length, dil int, padding bool) (start, end, ilo, ihi int) {
	span := 4 * dil
	start, end = 0, length
	if !padding {
		start, end = span, length-span
		if end <= start {
			start, end = 0, length // series too short: fall back to padded
		}
	}
	ilo, ihi = span, length-span
	if ilo < start {
		ilo = start
	}
	if ilo > end {
		ilo = end
	}
	if ihi > end {
		ihi = end
	}
	if ihi < ilo {
		ihi = ilo
	}
	return start, end, ilo, ihi
}

// convolveSeries computes the dilated convolution of one contiguous
// series, appending into dst[:0]. It is the seed's single-channel loop
// with the interior rewritten over nine shifted subslices so the
// compiler drops the bounds checks; tap order and the final expression
// are unchanged, so outputs stay bit-identical.
func convolveSeries(dst, s []float64, pos [3]int, dil int, padding bool) []float64 {
	length := len(s)
	start, end, ilo, ihi := convRegion(length, dil, padding)
	out := dst[:0]
	for t := start; t < ilo; t++ {
		out = append(out, convolveGuarded(s, pos, dil, t))
	}
	if n := ihi - ilo; n > 0 {
		b0 := ilo - 4*dil
		s0, s1, s2 := s[b0:], s[b0+dil:], s[b0+2*dil:]
		s3, s4, s5 := s[b0+3*dil:], s[b0+4*dil:], s[b0+5*dil:]
		s6, s7, s8 := s[b0+6*dil:], s[b0+7*dil:], s[b0+8*dil:]
		p0, p1, p2 := s[b0+pos[0]*dil:], s[b0+pos[1]*dil:], s[b0+pos[2]*dil:]
		for i := 0; i < n; i++ {
			sumAll := s0[i] + s1[i] + s2[i] + s3[i] + s4[i] + s5[i] + s6[i] + s7[i] + s8[i]
			sumPos := p0[i] + p1[i] + p2[i]
			out = append(out, 3*sumPos-sumAll)
		}
	}
	for t := ihi; t < end; t++ {
		out = append(out, convolveGuarded(s, pos, dil, t))
	}
	return out
}

// convolveGuarded is the boundary form: every tap range-checked, sums
// accumulated in ascending tap order exactly as the seed loop does.
func convolveGuarded(s []float64, pos [3]int, dil, t int) float64 {
	length := len(s)
	base := t - 4*dil
	var sumAll, sumPos float64
	for j := 0; j < kernelLength; j++ {
		off := base + j*dil
		if off < 0 || off >= length {
			continue
		}
		sumAll += s[off]
		if j == pos[0] || j == pos[1] || j == pos[2] {
			sumPos += s[off]
		}
	}
	return 3*sumPos - sumAll
}

// sumAllInto fills dst[t] with the 9-tap all-weights sum at every time
// point of s for one dilation — the part of the convolution that is
// identical for all 84 kernels. Additions run in ascending tap order,
// matching the seed's sumAll bit for bit.
func sumAllInto(dst, s []float64, dil int) []float64 {
	length := len(s)
	if cap(dst) < length {
		dst = make([]float64, length)
	} else {
		dst = dst[:length]
	}
	lo, hi := 4*dil, length-4*dil
	if lo > length {
		lo = length
	}
	if hi < lo {
		hi = lo
	}
	for t := 0; t < lo; t++ {
		dst[t] = sumAllGuarded(s, dil, t)
	}
	if n := hi - lo; n > 0 {
		s0, s1, s2 := s[0:], s[dil:], s[2*dil:]
		s3, s4, s5 := s[3*dil:], s[4*dil:], s[5*dil:]
		s6, s7, s8 := s[6*dil:], s[7*dil:], s[8*dil:]
		interior := dst[lo:hi]
		for i := range interior {
			interior[i] = s0[i] + s1[i] + s2[i] + s3[i] + s4[i] + s5[i] + s6[i] + s7[i] + s8[i]
		}
	}
	for t := hi; t < length; t++ {
		dst[t] = sumAllGuarded(s, dil, t)
	}
	return dst
}

func sumAllGuarded(s []float64, dil, t int) float64 {
	length := len(s)
	base := t - 4*dil
	var sum float64
	for j := 0; j < kernelLength; j++ {
		off := base + j*dil
		if off < 0 || off >= length {
			continue
		}
		sum += s[off]
	}
	return sum
}

// convolveFromBase computes one kernel's convolution given the shared
// 9-tap base for its dilation: three weight-2 taps plus a lookup
// instead of twelve taps. The final expression 3*sumPos - sumAll reads
// the exact sumAll value the seed computed inline, so outputs are
// bit-identical.
func convolveFromBase(dst, s, base []float64, pos [3]int, dil int, padding bool) []float64 {
	length := len(s)
	start, end, ilo, ihi := convRegion(length, dil, padding)
	out := dst[:0]
	for t := start; t < ilo; t++ {
		out = append(out, 3*posSumGuarded(s, pos, dil, t)-base[t])
	}
	if n := ihi - ilo; n > 0 {
		b0 := ilo - 4*dil
		p0, p1, p2 := s[b0+pos[0]*dil:], s[b0+pos[1]*dil:], s[b0+pos[2]*dil:]
		bb := base[ilo:ihi]
		for i, bv := range bb {
			sumPos := p0[i] + p1[i] + p2[i]
			out = append(out, 3*sumPos-bv)
		}
	}
	for t := ihi; t < end; t++ {
		out = append(out, 3*posSumGuarded(s, pos, dil, t)-base[t])
	}
	return out
}

func posSumGuarded(s []float64, pos [3]int, dil, t int) float64 {
	length := len(s)
	var sum float64
	for _, p := range pos {
		off := t + (p-4)*dil
		if off < 0 || off >= length {
			continue
		}
		sum += s[off]
	}
	return sum
}

// channelSumInto sums a combo's channel subset into one contiguous
// series, ascending channel order per time point — the same addition
// order as the seed's innermost loop.
func channelSumInto(dst []float64, instance [][]float64, channels []int) []float64 {
	length := len(instance[0])
	if cap(dst) < length {
		dst = make([]float64, length)
	} else {
		dst = dst[:length]
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, ch := range channels {
		if ch >= len(instance) {
			continue
		}
		s := instance[ch]
		if len(s) > length {
			s = s[:length]
		}
		w := dst[:len(s)]
		for i, v := range s {
			w[i] += v
		}
	}
	return dst
}

// PredictProba returns class probabilities for one instance.
func (m *Model) PredictProba(instance [][]float64) []float64 {
	return m.head.PredictProba(m.Transform(instance))
}

// Predict returns the most probable class for one instance.
func (m *Model) Predict(instance [][]float64) int {
	return stats.ArgMax(m.head.DecisionScores(m.Transform(instance)))
}

// NumFeatures reports the realized feature dimensionality.
func (m *Model) NumFeatures() int {
	total := 0
	for _, cb := range m.combos {
		total += len(cb.biases)
	}
	return total
}
