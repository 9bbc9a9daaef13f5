package mlstm

import (
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/testenv"
)

// trainStepModel returns a model fitted for one epoch on sine instances of
// the given length, ready for further forwardBackward calls.
func trainStepModel(tb testing.TB, length int, attention bool) (*Model, [][][]float64, []int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	train, trainY := sineInstances(rng, 8, length)
	m := New(Config{Filters: [3]int{8, 16, 8}, Cells: 8, Epochs: 1, Attention: attention, Seed: 11})
	if err := m.Fit(train, trainY, 2); err != nil {
		tb.Fatal(err)
	}
	return m, train, trainY
}

// TestTrainStepAllocs gates one training step — forwardBackward plus an
// Adam step — at no allocation once a warm-up sample has grown every
// layer's buffers: each layer reuses its outputs, caches and gradients
// from sample to sample.
func TestTrainStepAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	m, train, trainY := trainStepModel(t, 64, false)
	m.forwardBackward(train[0], trainY[0])
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		m.forwardBackward(train[i%len(train)], trainY[i%len(train)])
		m.opt.Step(1)
		i++
	})
	if allocs > 0 {
		t.Errorf("training step allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkTrainStep measures one forwardBackward plus an Adam step at
// the Fast preset's filter widths on a 128-point univariate series.
func BenchmarkTrainStep(b *testing.B) {
	m, train, trainY := trainStepModel(b, 128, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forwardBackward(train[i%len(train)], trainY[i%len(train)])
		m.opt.Step(1)
	}
}
