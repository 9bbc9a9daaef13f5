package neural

import (
	"math"

	"github.com/goetsc/goetsc/internal/stats"
)

// SoftmaxCrossEntropy combines the softmax activation with cross-entropy
// loss; its backward pass has the simple form probs - onehot(label).
type SoftmaxCrossEntropy struct {
	probs []float64
	label int
	grad  []float64 // Backward's buffer
}

// Forward returns the loss for the given logits and true label, caching
// state for Backward.
func (s *SoftmaxCrossEntropy) Forward(logits []float64, label int) float64 {
	s.probs = stats.Softmax(logits, grow(s.probs, len(logits)))
	s.label = label
	p := s.probs[label]
	if p < 1e-15 {
		p = 1e-15
	}
	return -math.Log(p)
}

// Probs returns the cached probabilities of the last Forward call.
func (s *SoftmaxCrossEntropy) Probs() []float64 { return s.probs }

// Backward returns dL/dlogits.
func (s *SoftmaxCrossEntropy) Backward() []float64 {
	s.grad = append(s.grad[:0], s.probs...)
	s.grad[s.label] -= 1
	return s.grad
}
