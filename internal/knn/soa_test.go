package knn

import (
	"math"
	"math/rand"
	"testing"
)

// prefixScanSlices is the pre-flat-layout Extend: a strided read into
// every stored series per time step. Kept verbatim as the reference (and
// benchmark baseline) the time-major transpose must match bit for bit.
type prefixScanSlices struct {
	s    *Searcher
	sums []float64
	t    int
}

func (p *prefixScanSlices) extend(query []float64, upto int) {
	if upto > len(query) {
		upto = len(query)
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

// nearestSlices is the pre-flat-layout Nearest: same blocked abandon,
// but per-row slice-of-slices pointer chasing. Benchmark baseline.
func nearestSlices(s *Searcher, query []float64, prefix int) (int, float64) {
	if prefix > len(query) || prefix <= 0 {
		prefix = len(query)
	}
	best, bestDist := -1, math.Inf(1)
	for i, ser := range s.series {
		n := prefix
		if len(ser) < n {
			n = len(ser)
		}
		var sum float64
		for t := 0; t < n; {
			end := t + 8
			if end > n {
				end = n
			}
			for ; t < end; t++ {
				d := query[t] - ser[t]
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

// TestFlatLayoutMirrorsSeries checks the row-major and time-major copies
// hold exactly the stored values.
func TestFlatLayoutMirrorsSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randomSearcher(rng, 17, 23)
	for i, ser := range s.series {
		row := s.flat[s.starts[i]:s.starts[i+1]]
		for tt, v := range ser {
			if row[tt] != v {
				t.Fatalf("flat[%d][%d] = %v, want %v", i, tt, row[tt], v)
			}
			if s.cols[tt*len(s.series)+i] != v {
				t.Fatalf("cols[%d][%d] = %v, want %v", tt, i, s.cols[tt*len(s.series)+i], v)
			}
		}
	}
	if s.rectLen != 23 {
		t.Fatalf("rectLen = %d, want 23", s.rectLen)
	}
	// A ragged set keeps the row layout but drops the transpose.
	ragged := append([][]float64{}, s.series...)
	ragged[5] = ragged[5][:7]
	s2, err := NewSearcher(ragged, s.labels)
	if err != nil {
		t.Fatal(err)
	}
	if s2.rectLen != 0 || s2.cols != nil {
		t.Fatalf("ragged searcher built a transpose (rectLen=%d)", s2.rectLen)
	}
}

// TestNearestMatchesSlicesBaseline checks the flat row scan reproduces
// the slice-of-slices scan bit for bit, winners and distances.
func TestNearestMatchesSlicesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := randomSearcher(rng, 40, 57)
	for trial := 0; trial < 30; trial++ {
		query := make([]float64, 57)
		for i := range query {
			query[i] = rng.NormFloat64()
		}
		for _, prefix := range []int{1, 7, 8, 9, 31, 57} {
			gi, gd := s.Nearest(query, prefix)
			wi, wd := nearestSlices(s, query, prefix)
			if gi != wi || gd != wd {
				t.Fatalf("trial %d prefix %d: flat (%d,%v) vs slices (%d,%v)", trial, prefix, gi, gd, wi, wd)
			}
		}
	}
}

// TestPrefixScanMatchesSlicesBaseline checks the transpose sweep keeps
// the exact running sums of the strided sweep.
func TestPrefixScanMatchesSlicesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randomSearcher(rng, 25, 40)
	query := make([]float64, 48)
	for i := range query {
		query[i] = rng.NormFloat64()
	}
	ps := s.NewPrefixScan()
	ref := &prefixScanSlices{s: s, sums: make([]float64, s.Len())}
	for l := 1; l <= len(query); l++ {
		ps.Extend(query, l)
		ref.extend(query, l)
		for i := range ref.sums {
			if ps.sums[i] != ref.sums[i] {
				t.Fatalf("prefix %d series %d: %v vs %v", l, i, ps.sums[i], ref.sums[i])
			}
		}
	}
}

// TestPrefixScanReset checks a pooled scan rewound with Reset reproduces
// a freshly allocated one.
func TestPrefixScanReset(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := randomSearcher(rng, 12, 30)
	q1 := make([]float64, 30)
	q2 := make([]float64, 30)
	for i := range q1 {
		q1[i], q2[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	ps := s.NewPrefixScan()
	ps.Extend(q1, 30)
	ps.Reset()
	ps.Extend(q2, 30)
	fresh := s.NewPrefixScan()
	fresh.Extend(q2, 30)
	for i := range fresh.sums {
		if ps.sums[i] != fresh.sums[i] {
			t.Fatalf("series %d: reset scan %v vs fresh %v", i, ps.sums[i], fresh.sums[i])
		}
	}
}

// TestExtendBestMatchesExtendThenBest checks the fused accumulate+argmin
// pass reproduces Extend followed by Best at every prefix, across
// multi-point jumps, ragged storage, prefixes past the stored length,
// and both precisions.
func TestExtendBestMatchesExtendThenBest(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	base := randomSearcher(rng, 25, 40)
	ragged := append([][]float64{}, base.series...)
	ragged[3] = ragged[3][:11]
	s2, err := NewSearcher(ragged, base.labels)
	if err != nil {
		t.Fatal(err)
	}
	f32 := randomSearcher(rng, 25, 40)
	f32.SetFloat32(true)
	for _, s := range []*Searcher{base, s2, f32} {
		query := make([]float64, 48)
		for i := range query {
			query[i] = rng.NormFloat64()
		}
		fused := s.NewPrefixScan()
		plain := s.NewPrefixScan()
		step := 1
		for l := 1; l <= len(query); l += step {
			got := fused.ExtendBest(query, l)
			plain.Extend(query, l)
			if want := plain.Best(); got != want {
				t.Fatalf("prefix %d: ExtendBest %d, Extend+Best %d", l, got, want)
			}
			if fused.Prefix() != plain.Prefix() {
				t.Fatalf("prefix %d: fused t=%d plain t=%d", l, fused.Prefix(), plain.Prefix())
			}
			step = 1 + rng.Intn(3)
		}
	}
}

// nearestExhaustiveF32 is the float32 reference: exhaustive scan with
// float32 accumulation in time order.
func nearestExhaustiveF32(s *Searcher, query []float64, prefix int) int {
	best := -1
	bestDist := float32(math.Inf(1))
	for i, ser := range s.series {
		n := prefix
		if len(ser) < n {
			n = len(ser)
		}
		var sum float32
		for t := 0; t < n; t++ {
			d := float32(query[t]) - float32(ser[t])
			sum += d * d
		}
		if sum < bestDist {
			best, bestDist = i, sum
		}
	}
	return best
}

// TestFloat32NearestMatchesExhaustive checks the float32 blocked abandon
// and the float32 prefix scan both reproduce the exhaustive float32
// winner — the property that keeps cursor and classify consistent in
// low-precision serving mode.
func TestFloat32NearestMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := randomSearcher(rng, 40, 57)
	s.SetFloat32(true)
	if !s.Float32() {
		t.Fatal("Float32() = false after enable")
	}
	query := make([]float64, 57)
	for trial := 0; trial < 30; trial++ {
		for i := range query {
			query[i] = rng.NormFloat64()
		}
		ps := s.NewPrefixScan()
		for _, prefix := range []int{1, 7, 8, 9, 31, 57} {
			want := nearestExhaustiveF32(s, query, prefix)
			got, _ := s.Nearest(query, prefix)
			if got != want {
				t.Fatalf("trial %d prefix %d: f32 Nearest %d, exhaustive %d", trial, prefix, got, want)
			}
			ps.Extend(query, prefix)
			if got := ps.Best(); got != want {
				t.Fatalf("trial %d prefix %d: f32 Best %d, exhaustive %d", trial, prefix, got, want)
			}
		}
	}
	// Switching back restores the float64 path bit for bit.
	s.SetFloat32(false)
	gi, gd := s.Nearest(query, 57)
	wi, wd := nearestExhaustive(s, query, 57)
	if gi != wi || gd != wd {
		t.Fatalf("after disable: (%d,%v) vs (%d,%v)", gi, gd, wi, wd)
	}
}

// TestNearestBatchMatchesLoop checks batch answers equal per-query calls
// and that provided buffers are reused.
func TestNearestBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := randomSearcher(rng, 30, 44)
	queries := make([][]float64, 9)
	for qi := range queries {
		queries[qi] = make([]float64, 44)
		for i := range queries[qi] {
			queries[qi][i] = rng.NormFloat64()
		}
	}
	idx := make([]int, 0, len(queries))
	dist := make([]float64, 0, len(queries))
	gotIdx, gotDist := s.NearestBatch(queries, 44, idx, dist)
	if &gotIdx[0] != &idx[:1][0] || &gotDist[0] != &dist[:1][0] {
		t.Fatal("NearestBatch did not reuse the provided buffers")
	}
	for qi, q := range queries {
		wi, wd := s.Nearest(q, 44)
		if gotIdx[qi] != wi || gotDist[qi] != wd {
			t.Fatalf("query %d: batch (%d,%v) vs loop (%d,%v)", qi, gotIdx[qi], gotDist[qi], wi, wd)
		}
	}
}

func BenchmarkNearestSlices(b *testing.B) {
	s, query := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSlices(s, query, len(query))
	}
}

func BenchmarkNearestF32(b *testing.B) {
	s, query := benchSetup(b)
	s.SetFloat32(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Nearest(query, len(query))
	}
}

// prefixScanSweep sweeps one full query through the running-distance
// accumulator — the distance kernel under every ECTS classification.
func prefixScanSweep(ps *PrefixScan, query []float64) {
	ps.Reset()
	for l := 1; l <= len(query); l++ {
		ps.ExtendBest(query, l)
	}
}

// prefixScanSlicesSweep is the same sweep over the strided
// slice-of-slices layout the transpose replaced.
func prefixScanSlicesSweep(s *Searcher, query []float64) {
	ref := &prefixScanSlices{s: s, sums: make([]float64, s.Len())}
	for l := 1; l <= len(query); l++ {
		ref.extend(query, l)
		best, bestSum := -1, math.Inf(1)
		for j, sum := range ref.sums {
			if sum < bestSum {
				best, bestSum = j, sum
			}
		}
		_ = best
	}
}

func BenchmarkPrefixScan(b *testing.B) {
	s, query := benchSetup(b)
	ps := s.NewPrefixScan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefixScanSweep(ps, query)
	}
}

func BenchmarkPrefixScanSlices(b *testing.B) {
	s, query := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefixScanSlicesSweep(s, query)
	}
}

func BenchmarkNearestBatch(b *testing.B) {
	s, query := benchSetup(b)
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = query
	}
	idx := make([]int, len(queries))
	dist := make([]float64, len(queries))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NearestBatch(queries, len(query), idx, dist)
	}
}
