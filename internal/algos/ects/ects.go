// Package ects implements Early Classification on Time Series (Xing, Pei &
// Yu, KAIS 2012): 1-nearest-neighbour relationships are computed for every
// prefix length; a series' Minimum Prediction Length (MPL) is the prefix
// from which its reverse-nearest-neighbour set stays identical through the
// full length; agglomerative hierarchical clustering of label-pure groups
// then relaxes MPLs using joint RNN + 1-NN consistency. At test time an
// incoming prefix is matched to its training nearest neighbour and a
// prediction is emitted once the observed length reaches the neighbour's
// MPL.
package ects

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/goetsc/goetsc/internal/hclust"
	"github.com/goetsc/goetsc/internal/knn"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// Config holds the ECTS parameters.
type Config struct {
	// Support is the minimum RNN-set size required for a prefix to count
	// as consistent; the paper's evaluation uses 0 (Table 4).
	Support int
	// MaxTrainInstances caps the training-set size by stratified
	// subsampling — the O(N²·L) prefix sweep and O(N²) memory make very
	// large datasets impractical, mirroring the scalability limits the
	// paper reports. Default 2000; 0 keeps everything.
	MaxTrainInstances int
	// Seed drives the subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxTrainInstances == 0 {
		c.MaxTrainInstances = 2000
	}
	return c
}

// Classifier is a fitted ECTS model implementing core.EarlyClassifier.
type Classifier struct {
	Cfg Config

	length   int
	series   [][]float64
	labels   []int
	mpl      []int
	searcher *knn.Searcher

	// scanPool recycles PrefixScan accumulators so concurrent Classify
	// calls stay allocation-free after warm-up.
	scanPool sync.Pool
}

// getScan returns a rewound PrefixScan in the searcher's current
// precision, pooled across Classify calls.
func (c *Classifier) getScan() *knn.PrefixScan {
	if ps, _ := c.scanPool.Get().(*knn.PrefixScan); ps != nil {
		ps.Reset()
		return ps
	}
	return c.searcher.NewPrefixScan()
}

// New returns an untrained ECTS classifier.
func New(cfg Config) *Classifier { return &Classifier{Cfg: cfg} }

// Name implements core.EarlyClassifier.
func (c *Classifier) Name() string { return "ECTS" }

// Fit implements core.EarlyClassifier; the input must be univariate.
func (c *Classifier) Fit(train *ts.Dataset) error {
	if train.NumVars() != 1 {
		return fmt.Errorf("ects: univariate algorithm got %d variables (use the voting wrapper)", train.NumVars())
	}
	if train.Len() < 2 {
		return fmt.Errorf("ects: need at least 2 training series")
	}
	cfg := c.Cfg.withDefaults()
	c.length = train.MaxLength()

	working := train
	if cfg.MaxTrainInstances > 0 && train.Len() > cfg.MaxTrainInstances {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		keep, _, err := ts.StratifiedSplit(train, float64(cfg.MaxTrainInstances)/float64(train.Len()), rng)
		if err != nil {
			return fmt.Errorf("ects: subsample: %w", err)
		}
		working = train.Subset(keep)
	}

	n := working.Len()
	c.series = make([][]float64, n)
	c.labels = make([]int, n)
	for i, in := range working.Instances {
		c.series[i] = padTo(in.Values[0], c.length)
		c.labels[i] = in.Label
	}

	// Sweep prefixes, recording NN and RNN sets at every length.
	sweep, err := knn.NewIncrementalPairwise(c.series)
	if err != nil {
		return fmt.Errorf("ects: %w", err)
	}
	nnByPrefix := make([][][]int, 0, c.length)  // [prefix][i] -> nn set
	rnnByPrefix := make([][][]int, 0, c.length) // [prefix][i] -> rnn set
	for sweep.Step() {
		nn := sweep.NearestSets(1e-12)
		nnByPrefix = append(nnByPrefix, nn)
		rnnByPrefix = append(rnnByPrefix, knn.ReverseSets(nn))
	}
	L := len(nnByPrefix)
	final := L - 1

	// Per-series MPL: the smallest prefix from which the RNN set equals
	// the full-length RNN set at every longer prefix, with at least
	// Support members.
	c.mpl = make([]int, n)
	for i := 0; i < n; i++ {
		c.mpl[i] = L // default: needs the full series
		if len(rnnByPrefix[final][i]) < cfg.Support {
			continue
		}
		for l := final; l >= 0; l-- {
			if !sameSet(rnnByPrefix[l][i], rnnByPrefix[final][i]) || len(rnnByPrefix[l][i]) < cfg.Support {
				break
			}
			c.mpl[i] = l + 1 // prefix lengths are 1-based
		}
	}

	// Clustering phase: merge nearest clusters (full-length distances);
	// label-pure merged clusters may lower their members' MPLs via joint
	// RNN + 1-NN consistency.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = math.Sqrt(sweep.SquaredDist(i, j))
		}
	}
	merges, err := hclust.Agglomerate(dist, hclust.Single)
	if err != nil {
		return fmt.Errorf("ects: clustering: %w", err)
	}
	for _, merge := range merges {
		if !labelPure(merge.Result, c.labels) {
			continue
		}
		clusterMPL := c.clusterMPL(merge.Result, nnByPrefix, rnnByPrefix, cfg.Support)
		if clusterMPL > L {
			continue
		}
		for _, member := range merge.Result {
			if clusterMPL < c.mpl[member] {
				c.mpl[member] = clusterMPL
			}
		}
	}

	c.searcher, err = knn.NewSearcher(c.series, c.labels)
	return err
}

// clusterMPL returns the smallest 1-based prefix from which the cluster is
// both RNN-consistent (its reverse-neighbour set outside the cluster stays
// equal to the full-length one and meets the support) and 1-NN consistent
// (every member's nearest neighbour stays inside the cluster), through the
// full length. It returns length+1 when no prefix qualifies.
func (c *Classifier) clusterMPL(members []int, nnByPrefix, rnnByPrefix [][][]int, support int) int {
	L := len(nnByPrefix)
	inCluster := map[int]bool{}
	for _, m := range members {
		inCluster[m] = true
	}
	finalRNN := clusterRNN(members, inCluster, rnnByPrefix[L-1])
	if len(finalRNN) < support {
		return L + 1
	}
	best := L + 1
	for l := L - 1; l >= 0; l-- {
		if !sameSet(clusterRNN(members, inCluster, rnnByPrefix[l]), finalRNN) {
			break
		}
		if !nnConsistent(members, inCluster, nnByPrefix[l]) {
			break
		}
		best = l + 1
	}
	return best
}

// clusterRNN collects the series outside the cluster whose nearest
// neighbour set intersects the cluster.
func clusterRNN(members []int, inCluster map[int]bool, rnn [][]int) []int {
	seen := map[int]bool{}
	for _, m := range members {
		for _, j := range rnn[m] {
			if !inCluster[j] {
				seen[j] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for j := range seen {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// nnConsistent reports whether every member's nearest-neighbour set lies
// entirely inside the cluster (singleton clusters trivially pass).
func nnConsistent(members []int, inCluster map[int]bool, nn [][]int) bool {
	if len(members) == 1 {
		return true
	}
	for _, m := range members {
		for _, j := range nn[m] {
			if !inCluster[j] {
				return false
			}
		}
	}
	return true
}

func labelPure(members []int, labels []int) bool {
	for _, m := range members[1:] {
		if labels[m] != labels[members[0]] {
			return false
		}
	}
	return true
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	// Sets produced by NearestSets / clusterRNN are sorted ascending.
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Classify implements core.EarlyClassifier: the incoming series is matched
// against training prefixes of growing length; once the observed length
// reaches the nearest neighbour's MPL, that neighbour's label is returned.
//
// The sweep rides a pooled knn.PrefixScan: running squared distances are
// extended by one point per length and the nearest neighbour falls out
// of the same fused pass, O(n·L) total instead of the O(n·L²) of calling
// Nearest from scratch at every length. The scan accumulates squared
// differences in the same time order Nearest uses and breaks ties to the
// lower index, so the committed label and prefix are bit-identical to
// the per-length Nearest loop this replaces.
func (c *Classifier) Classify(in ts.Instance) (int, int) {
	s := in.Values[0]
	limit := len(s)
	if limit > c.length {
		limit = c.length
	}
	ps := c.getScan()
	defer c.scanPool.Put(ps)
	for l := 1; l <= limit; l++ {
		nn := ps.ExtendBest(s, l)
		if l >= c.mpl[nn] {
			return c.searcher.Label(nn), l
		}
	}
	return c.searcher.Label(ps.Best()), len(s)
}

// MPLs exposes the learned minimum prediction lengths (for tests and
// diagnostics).
func (c *Classifier) MPLs() []int { return append([]int(nil), c.mpl...) }

func padTo(s []float64, n int) []float64 {
	if len(s) >= n {
		return s[:n]
	}
	out := make([]float64, n)
	copy(out, s)
	last := 0.0
	if len(s) > 0 {
		last = s[len(s)-1]
	}
	for i := len(s); i < n; i++ {
		out[i] = last
	}
	return out
}
