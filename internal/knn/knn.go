// Package knn provides 1-nearest-neighbour primitives: a prefix-aware
// searcher used at ETSC test time and an incremental pairwise-distance
// sweep that yields nearest-neighbour sets for every prefix length, the
// core computation behind ECTS's RNN analysis.
package knn

import (
	"fmt"
	"math"
)

// Searcher answers nearest-neighbour queries over a set of stored
// univariate series, optionally restricted to a prefix length.
//
// The stored series are mirrored into two flat structure-of-arrays
// layouts at construction: a row-major matrix (one contiguous row per
// series) that Nearest scans without per-row pointer chasing, and — when
// every series has the same length — a time-major transpose whose
// per-time-step columns make PrefixScan's inner loop one contiguous
// sweep. Both layouts hold exactly the same values in the same
// accumulation order as the slice-of-slices they mirror, so results stay
// bit-identical.
type Searcher struct {
	series [][]float64
	labels []int

	flat    []float64 // row-major copy of series
	starts  []int     // len(series)+1 row offsets into flat
	rectLen int       // common series length; 0 when lengths are ragged
	cols    []float64 // time-major transpose cols[t*n+i]; rect only
}

// NewSearcher stores the given series (not copied) and their labels.
func NewSearcher(series [][]float64, labels []int) (*Searcher, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("knn: no series")
	}
	if len(series) != len(labels) {
		return nil, fmt.Errorf("knn: %d series but %d labels", len(series), len(labels))
	}
	s := &Searcher{series: series, labels: labels}
	total := 0
	rect := len(series[0])
	for _, ser := range series {
		total += len(ser)
		if len(ser) != rect {
			rect = 0
		}
	}
	s.flat = make([]float64, 0, total)
	s.starts = make([]int, len(series)+1)
	for i, ser := range series {
		s.starts[i] = len(s.flat)
		s.flat = append(s.flat, ser...)
	}
	s.starts[len(series)] = len(s.flat)
	if rect > 0 {
		s.rectLen = rect
		n := len(series)
		s.cols = make([]float64, n*rect)
		for i, ser := range series {
			for t, v := range ser {
				s.cols[t*n+i] = v
			}
		}
	}
	return s, nil
}

// Len returns the number of stored series.
func (s *Searcher) Len() int { return len(s.series) }

// Label returns the label of stored series i.
func (s *Searcher) Label(i int) int { return s.labels[i] }

// Nearest returns the index of the stored series closest to query in
// Euclidean distance over the first min(len(query), prefix, len(stored))
// time points, along with the distance. Ties resolve to the lower index.
//
// The inner loop abandons a candidate as soon as its running sum reaches
// the best distance so far (linalg.SqDistBounded). The abandon is exact
// and order-preserving: squared differences are added in time order
// exactly as an exhaustive scan would, so the winning index and its
// distance are bit-identical to a scan without abandoning (a true
// minimum never trips the bound — all its partial sums stay below it).
func (s *Searcher) Nearest(query []float64, prefix int) (int, float64) {
	if prefix > len(query) || prefix <= 0 {
		prefix = len(query)
	}
	q := query[:prefix]
	best, bestDist := -1, math.Inf(1)
	flat, starts := s.flat, s.starts
	for i := 0; i < len(starts)-1; i++ {
		row := flat[starts[i]:starts[i+1]]
		n := prefix
		if len(row) < n {
			n = len(row)
		}
		// The abandon loop is linalg.SqDistBounded spelled inline: the
		// per-row call would cost more than the work it saves on
		// class-separated data, where most rows abandon within a couple
		// of blocks.
		var sum float64
		for t := 0; t < n; {
			end := t + abandonBlock
			if end > n {
				end = n
			}
			for ; t < end; t++ {
				d := q[t] - row[t]
				sum += d * d
			}
			if sum >= bestDist {
				break
			}
		}
		if sum < bestDist {
			best, bestDist = i, sum
		}
	}
	return best, math.Sqrt(bestDist)
}

// abandonBlock is how many squared differences Nearest accumulates
// between early-abandon checks, matching linalg's blocked kernels.
const abandonBlock = 8

// NearestBatch answers Nearest for a batch of queries at one prefix,
// writing winners and distances into the provided slices (allocated when
// nil or too short) and returning them. Each query's result is exactly
// Nearest(query, prefix); batching exists so callers scanning many
// instances reuse one pair of output buffers and keep the training
// matrix hot in cache across consecutive queries.
func (s *Searcher) NearestBatch(queries [][]float64, prefix int, idx []int, dist []float64) ([]int, []float64) {
	if cap(idx) < len(queries) {
		idx = make([]int, len(queries))
	}
	idx = idx[:len(queries)]
	if cap(dist) < len(queries) {
		dist = make([]float64, len(queries))
	}
	dist = dist[:len(queries)]
	for qi, q := range queries {
		idx[qi], dist[qi] = s.Nearest(q, prefix)
	}
	return idx, dist
}

// PrefixScan maintains the running squared distance from one growing
// query prefix to every stored series, so a sweep over all prefix
// lengths costs O(n·L) total instead of the O(n·L²) of calling Nearest
// at every length. Squared differences are accumulated in time order —
// the same addition order Nearest uses — so Best reproduces Nearest's
// winner at the current prefix bit for bit.
//
// When the stored series are rectangular the per-step inner loop runs
// over the searcher's time-major transpose: one contiguous column of
// training values per time step instead of n strided slice reads.
// The per-series addition sequence is unchanged, so the sums — and the
// winner — are bit-identical to the slice-of-slices sweep.
type PrefixScan struct {
	s    *Searcher
	sums []float64
	t    int
}

// NewPrefixScan starts a sweep at prefix length zero.
func (s *Searcher) NewPrefixScan() *PrefixScan {
	return &PrefixScan{s: s, sums: make([]float64, len(s.series))}
}

// Reset rewinds the scan to prefix length zero so one allocation can
// serve many queries (the zero-alloc classify path pools these).
func (p *PrefixScan) Reset() {
	p.t = 0
	for i := range p.sums {
		p.sums[i] = 0
	}
}

// Prefix returns the number of query points accumulated so far.
func (p *PrefixScan) Prefix() int { return p.t }

// Extend accumulates query points up to (but not beyond) index upto.
// Stored series shorter than the prefix stop contributing, mirroring
// Nearest's clamp.
func (p *PrefixScan) Extend(query []float64, upto int) {
	if upto > len(query) {
		upto = len(query)
	}
	if n := len(p.s.series); p.s.rectLen > 0 {
		cols, L := p.s.cols, p.s.rectLen
		for ; p.t < upto; p.t++ {
			if p.t >= L {
				continue // every stored series is exhausted
			}
			q := query[p.t]
			col := cols[p.t*n : (p.t+1)*n]
			sums := p.sums[:len(col)]
			for i, cv := range col {
				d := q - cv
				sums[i] += d * d
			}
		}
		return
	}
	for ; p.t < upto; p.t++ {
		q := query[p.t]
		for i, ser := range p.s.series {
			if p.t < len(ser) {
				d := q - ser[p.t]
				p.sums[i] += d * d
			}
		}
	}
}

// ExtendBest accumulates like Extend and returns Best, fusing the argmin
// scan of the final time step into the accumulation pass so the sums
// array is walked once instead of twice per step — the inner loop of
// every ECTS classification. The comparison order (ascending index,
// strictly smaller wins) is Best's exactly, applied to the same sums, so
// the winner is bit-identical to Extend followed by Best.
func (p *PrefixScan) ExtendBest(query []float64, upto int) int {
	if upto > len(query) {
		upto = len(query)
	}
	if p.t >= upto || p.s.rectLen == 0 || upto-1 >= p.s.rectLen {
		// No fresh contribution on the final step (or ragged storage):
		// accumulate plainly and scan.
		p.Extend(query, upto)
		return p.Best()
	}
	n := len(p.s.series)
	p.Extend(query, upto-1)
	q := query[upto-1]
	col := p.s.cols[(upto-1)*n : upto*n]
	sums := p.sums[:len(col)]
	best, bestSum := -1, math.Inf(1)
	for i, cv := range col {
		d := q - cv
		sum := sums[i] + d*d
		sums[i] = sum
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	p.t = upto
	return best
}

// Best returns the index of the nearest stored series at the current
// prefix, with ties resolving to the lower index — exactly the winner
// Nearest(query[:Prefix()], Prefix()) would report.
func (p *PrefixScan) Best() int {
	best, bestSum := -1, math.Inf(1)
	for i, sum := range p.sums {
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best
}

// IncrementalPairwise sweeps prefix lengths t = 1..L over a fixed set of
// equal-length series, maintaining all pairwise squared distances with an
// O(N²) update per step instead of O(N²·L) per prefix.
type IncrementalPairwise struct {
	series [][]float64
	d      [][]float64 // squared distances at current prefix
	t      int         // current prefix length (0 = not started)
	length int
}

// NewIncrementalPairwise prepares a sweep over the given equal-length
// series.
func NewIncrementalPairwise(series [][]float64) (*IncrementalPairwise, error) {
	if len(series) < 2 {
		return nil, fmt.Errorf("knn: incremental pairwise needs >= 2 series, got %d", len(series))
	}
	length := len(series[0])
	for i, s := range series {
		if len(s) != length {
			return nil, fmt.Errorf("knn: series %d has length %d, want %d", i, len(s), length)
		}
	}
	n := len(series)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return &IncrementalPairwise{series: series, d: d, length: length}, nil
}

// Step extends the prefix by one time point, updating all pairwise
// distances. It returns false once the full length has been consumed.
func (p *IncrementalPairwise) Step() bool {
	if p.t >= p.length {
		return false
	}
	t := p.t
	n := len(p.series)
	for i := 0; i < n; i++ {
		vi := p.series[i][t]
		for j := i + 1; j < n; j++ {
			diff := vi - p.series[j][t]
			p.d[i][j] += diff * diff
			p.d[j][i] = p.d[i][j]
		}
	}
	p.t++
	return true
}

// Prefix returns the current prefix length.
func (p *IncrementalPairwise) Prefix() int { return p.t }

// SquaredDist returns the squared distance between series i and j at the
// current prefix.
func (p *IncrementalPairwise) SquaredDist(i, j int) float64 { return p.d[i][j] }

// NearestSets returns, for every series, the set of its nearest neighbours
// at the current prefix (all indices tied within tol of the minimum,
// excluding the series itself).
func (p *IncrementalPairwise) NearestSets(tol float64) [][]int {
	n := len(p.series)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		min := math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if p.d[i][j] < min {
				min = p.d[i][j]
			}
		}
		var set []int
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if p.d[i][j] <= min+tol {
				set = append(set, j)
			}
		}
		out[i] = set
	}
	return out
}

// ReverseSets inverts nearest-neighbour sets: rnn[i] lists every j whose
// nearest-neighbour set contains i.
func ReverseSets(nn [][]int) [][]int {
	out := make([][]int, len(nn))
	for j, set := range nn {
		for _, i := range set {
			out[i] = append(out[i], j)
		}
	}
	return out
}
