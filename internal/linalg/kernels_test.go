package linalg

import (
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// naiveSqDist is the reference loop every kernel must reproduce bit for
// bit: strict index-order accumulation.
func naiveSqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

func TestSqDistMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 100, 1000} {
		a, b := randSlice(rng, n), randSlice(rng, n)
		if got, want := SqDist(a, b), naiveSqDist(a, b); got != want {
			t.Fatalf("n=%d: SqDist=%v naive=%v", n, got, want)
		}
		// Mismatched lengths clamp to the shorter operand.
		if n > 2 {
			if got, want := SqDist(a[:n-2], b), naiveSqDist(a[:n-2], b); got != want {
				t.Fatalf("n=%d short a: SqDist=%v naive=%v", n, got, want)
			}
		}
	}
}

func TestSqDistBoundedExactBelowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		a, b := randSlice(rng, n), randSlice(rng, n)
		want := naiveSqDist(a, b)
		// A bound above the true distance must never fire: exact result.
		if got := SqDistBounded(a, b, want+1); got != want {
			t.Fatalf("trial %d: SqDistBounded=%v want %v", trial, got, want)
		}
		// A bound at or below the true distance abandons with a partial
		// sum that is itself >= bound (unless the loop ran out first).
		if got := SqDistBounded(a, b, want/2); got < want/2 && got != want {
			t.Fatalf("trial %d: abandoned sum %v below bound %v", trial, got, want/2)
		}
	}
}

func TestSumSqAndAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSlice(rng, 129)
	var want float64
	for _, v := range a {
		want += v * v
	}
	if got := SumSq(a); got != want {
		t.Fatalf("SumSq=%v want %v", got, want)
	}

	x, y := randSlice(rng, 64), randSlice(rng, 64)
	wantY := append([]float64(nil), y...)
	for i := range wantY {
		wantY[i] += 0.25 * x[i]
	}
	Axpy(0.25, x, y)
	for i := range y {
		if y[i] != wantY[i] {
			t.Fatalf("Axpy[%d]=%v want %v", i, y[i], wantY[i])
		}
	}
	// Axpy matches the existing AddScaled update bit for bit on equal
	// lengths.
	y2 := append([]float64(nil), wantY...)
	y3 := append([]float64(nil), wantY...)
	Axpy(-1.5, x, y2)
	AddScaled(y3, -1.5, x)
	for i := range y2 {
		if y2[i] != y3[i] {
			t.Fatalf("Axpy vs AddScaled at %d: %v vs %v", i, y2[i], y3[i])
		}
	}
}

func BenchmarkSqDist(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x, y := randSlice(rng, 400), randSlice(rng, 400)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SqDist(x, y)
	}
	_ = sink
}
