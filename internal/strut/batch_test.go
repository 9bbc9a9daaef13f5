package strut

import (
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/minirocket"
)

// TestClassifyBatchMatchesClassify pins the batch contract: one
// ClassifyBatch call over N instances fills exactly the labels and
// consumed counts N individual Classify calls produce — core.Score's
// fold loop leans on this bit-identity.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	train := divergeDataset(rng, 50, 24, 4)
	algo := NewSMini(minirocket.Config{NumFeatures: 336}, Options{Seed: 11})
	if err := algo.Fit(train); err != nil {
		t.Fatal(err)
	}
	test := divergeDataset(rng, 20, 24, 4)
	// Mixed lengths: batch members shorter and longer than the learned
	// truncation exercise the clamping path too.
	short := test.Instances[3]
	short.Values = [][]float64{short.Values[0][:5]}
	probes := append(test.Instances, short)

	labels := make([]int, len(probes))
	consumed := make([]int, len(probes))
	algo.ClassifyBatch(probes, labels, consumed)
	for i, in := range probes {
		wantL, wantC := algo.Classify(in)
		if labels[i] != wantL || consumed[i] != wantC {
			t.Errorf("instance %d: batch (%d, %d), classify (%d, %d)", i, labels[i], consumed[i], wantL, wantC)
		}
	}
}
