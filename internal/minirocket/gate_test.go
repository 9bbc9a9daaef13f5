package minirocket

import (
	"testing"

	"github.com/goetsc/goetsc/internal/testenv"
)

// Speedup floors of the fast Transform, each 85% of the ratio committed
// in BENCH_PR7.json (commit b9db3da).
const (
	floorTransformVsSeed  = 2.435 // transform_vs_seed_baseline
	floorTransformVsNaive = 1.185 // transform_vs_naive_ppv
)

// BenchmarkSpeedupGate fails when Transform loses its speedup over the
// seed and naive references. `make test` runs it once (-benchtime 1x);
// `go test` alone never does.
func BenchmarkSpeedupGate(b *testing.B) {
	m, train := benchModel(b, 128)
	transform := func(f func(*Model, [][]float64) []float64) func() {
		i := 0
		return func() {
			f(m, train[i%len(train)])
			i++
		}
	}
	b.Run("transform_vs_seed_baseline", func(b *testing.B) {
		testenv.GateSpeedup(b, floorTransformVsSeed, 16, transform(transformSeed), transform((*Model).Transform))
	})
	b.Run("transform_vs_naive_ppv", func(b *testing.B) {
		testenv.GateSpeedup(b, floorTransformVsNaive, 16, transform(transformNaive), transform((*Model).Transform))
	})
}
