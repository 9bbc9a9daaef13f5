package testenv

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// speedupPairs is how many alternating baseline/optimized samples a
// speedup gate times. The median of nine per-pair ratios stays put when
// up to four pairs had one side slowed by a noisy neighbour or a GC
// cycle, where a single-shot ratio would swing with them.
const speedupPairs = 9

// GateSpeedup guards one optimization against a lost speedup. It calls
// baseline and optimized once each untimed, then times speedupPairs
// alternating pairs: a baseline sample followed by an optimized sample,
// each iters back-to-back calls of its op. It fails b unless the median
// of the per-pair ratios baseline ns / optimized ns reaches floor. The
// ratio is dimensionless, so it travels between machines far better
// than ns/op, and alternating inside every pair spreads a slow phase of
// a shared host over both sides. No GC is forced between samples: its
// heap walk evicts the fixture from cache, and the cold start it leaves
// widened the spread of the ratios. b reports the median as its
// "speedup" metric.
func GateSpeedup(b *testing.B, floor float64, iters int, baseline, optimized func()) {
	b.Helper()
	baseline()
	optimized()
	sample := func(op func()) func() int64 {
		return func() int64 {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			return time.Since(start).Nanoseconds()
		}
	}
	baseNs, optNs := alternate(speedupPairs, sample(baseline), sample(optimized))
	v, err := medianSpeedup(baseNs, optNs, floor)
	switch {
	case err != nil:
		b.Fatalf("%v: %v", err, v)
	case !v.pass():
		b.Fatalf("speedup lost: %v", v)
	}
	b.Log(v)
	b.ReportMetric(v.median, "speedup")
}

// alternate calls baseline then optimized k times, in that order, and
// returns the ns each call reported, pair i at index i of both slices.
func alternate(k int, baseline, optimized func() int64) (baseNs, optNs []int64) {
	baseNs, optNs = make([]int64, k), make([]int64, k)
	for i := range k {
		baseNs[i] = baseline()
		optNs[i] = optimized()
	}
	return baseNs, optNs
}

// verdict is the gate's finding on one series of timed pairs.
type verdict struct {
	ratios []float64 // baseline/optimized ns per pair, in run order
	median float64   // mean of the two middle ratios when k is even
	floor  float64
}

// pass reports whether the median ratio reaches the floor.
func (v verdict) pass() bool { return v.median >= v.floor }

func (v verdict) String() string {
	rs := make([]string, len(v.ratios))
	for i, r := range v.ratios {
		rs[i] = fmt.Sprintf("%.2f", r)
	}
	return fmt.Sprintf("median %.3fx, floor %.3fx, %d per-pair ratios [%s]",
		v.median, v.floor, len(v.ratios), strings.Join(rs, " "))
}

// medianSpeedup turns the ns of k >= 1 pairs, as alternate returns
// them, into the gate's verdict. A pair with a side that timed zero or
// less has no ratio: it reads NaN, the median is NaN, and the error
// names the pair, so a sample too short for the clock fails the gate
// instead of passing it on an infinite ratio.
func medianSpeedup(baseNs, optNs []int64, floor float64) (verdict, error) {
	v := verdict{ratios: make([]float64, len(baseNs)), floor: floor}
	var err error
	for i := range baseNs {
		if baseNs[i] <= 0 || optNs[i] <= 0 {
			v.ratios[i] = math.NaN()
			if err == nil {
				err = fmt.Errorf("pair %d of %d timed %d ns baseline, %d ns optimized", i+1, len(baseNs), baseNs[i], optNs[i])
			}
			continue
		}
		v.ratios[i] = float64(baseNs[i]) / float64(optNs[i])
	}
	if err != nil {
		v.median = math.NaN()
		return v, err
	}
	sorted := slices.Clone(v.ratios)
	slices.Sort(sorted)
	mid := len(sorted) / 2
	v.median = sorted[mid]
	if len(sorted)%2 == 0 {
		v.median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return v, nil
}
