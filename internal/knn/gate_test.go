package knn

import (
	"testing"

	"github.com/goetsc/goetsc/internal/testenv"
)

// Speedup floors of the two kNN kernels, each 85% of the ratio committed
// in BENCH_PR7.json (commit b9db3da).
const (
	floorAbandonVsExhaustive = 2.432 // knn_abandon_vs_exhaustive
	floorPrefixScanVsSlices  = 1.405 // prefix_scan_fused_vs_slices
)

// BenchmarkSpeedupGate fails when an optimized kernel loses its speedup
// over the baseline it replaced. `make test` runs it once
// (-benchtime 1x); `go test` alone never does.
func BenchmarkSpeedupGate(b *testing.B) {
	s, query := benchSetup(b)
	b.Run("knn_abandon_vs_exhaustive", func(b *testing.B) {
		testenv.GateSpeedup(b, floorAbandonVsExhaustive, 400,
			func() { nearestExhaustive(s, query, len(query)) },
			func() { s.Nearest(query, len(query)) })
	})
	b.Run("prefix_scan_fused_vs_slices", func(b *testing.B) {
		ps := s.NewPrefixScan()
		testenv.GateSpeedup(b, floorPrefixScanVsSlices, 60,
			func() { prefixScanSlicesSweep(s, query) },
			func() { prefixScanSweep(ps, query) })
	})
}
