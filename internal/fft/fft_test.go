package fft

import (
	"math"
	"math/rand"
	"testing"
)

func TestTransformConstantSignal(t *testing.T) {
	x := []float64{2, 2, 2, 2}
	out := Transform(x)
	if math.Abs(out[0]-8) > 1e-9 {
		t.Fatalf("DC = %v, want 8", out[0])
	}
	for i := 2; i < len(out); i++ {
		if math.Abs(out[i]) > 1e-9 {
			t.Fatalf("non-DC bin %d = %v, want 0", i, out[i])
		}
	}
}

func TestTransformSingleTone(t *testing.T) {
	n := 16
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	out := Transform(x)
	// Bin 3 should carry all energy: Re = n/2.
	if math.Abs(out[6]-8) > 1e-9 {
		t.Fatalf("bin 3 Re = %v, want 8", out[6])
	}
	for k := 0; k <= n/2; k++ {
		if k == 3 {
			continue
		}
		if math.Abs(out[2*k]) > 1e-9 || math.Abs(out[2*k+1]) > 1e-9 {
			t.Fatalf("bin %d nonzero: (%v, %v)", k, out[2*k], out[2*k+1])
		}
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 8, 16, 64, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fast := realFFT(x, n/2+1)
		slow := directDFT(x, n/2+1)
		if len(fast) != len(slow) {
			t.Fatalf("n=%d: lengths differ %d vs %d", n, len(fast), len(slow))
		}
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-7 {
				t.Fatalf("n=%d bin %d: fft=%v dft=%v", n, i, fast[i], slow[i])
			}
		}
	}
}

func TestTransformInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 5, 8, 16, 30, 33} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := Transform(x)
		back := Inverse(spec, n)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-7 {
				t.Fatalf("n=%d t=%d: got %v want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestCoefficients(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// Without dropping: first coeff pair is DC.
	c := Coefficients(x, 2, false)
	if len(c) != 4 {
		t.Fatalf("len = %d, want 4", len(c))
	}
	if math.Abs(c[0]-36) > 1e-9 {
		t.Fatalf("DC = %v, want 36", c[0])
	}
	// Dropping the first removes the DC pair.
	d := Coefficients(x, 2, true)
	if len(d) != 4 {
		t.Fatalf("len = %d, want 4", len(d))
	}
	if math.Abs(d[0]-c[2]) > 1e-12 {
		t.Fatalf("dropFirst misaligned: %v vs %v", d[0], c[2])
	}
}

func TestCoefficientsShortSignal(t *testing.T) {
	// Signal too short to provide requested coefficients: truncate, no panic.
	c := Coefficients([]float64{1, 2}, 10, false)
	if len(c) == 0 || len(c) > 20 {
		t.Fatalf("unexpected coeff count %d", len(c))
	}
	if out := Coefficients([]float64{1}, 1, true); len(out) != 0 {
		t.Fatalf("dropFirst on 1-sample signal should be empty, got %v", out)
	}
	if Transform(nil) != nil {
		t.Fatal("empty transform should be nil")
	}
}

func TestParsevalEnergyConservation(t *testing.T) {
	// Parseval: sum x² = (1/n) * sum |X_k|² over the FULL spectrum.
	rng := rand.New(rand.NewSource(9))
	n := 32
	x := make([]float64, n)
	var timeEnergy float64
	for i := range x {
		x[i] = rng.NormFloat64()
		timeEnergy += x[i] * x[i]
	}
	spec := Transform(x)
	var freqEnergy float64
	for k := 0; k <= n/2; k++ {
		mag2 := spec[2*k]*spec[2*k] + spec[2*k+1]*spec[2*k+1]
		if k != 0 && k != n/2 {
			mag2 *= 2
		}
		freqEnergy += mag2
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-7 {
		t.Fatalf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

// refDirectDFT is the all-bins direct DFT with separate math.Sin and
// math.Cos calls, the reference the bins-limited transform must match.
func refDirectDFT(x []float64) []float64 {
	n := len(x)
	bins := n/2 + 1
	out := make([]float64, 2*bins)
	for k := 0; k < bins; k++ {
		var re, im float64
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			re += x[t] * math.Cos(angle)
			im += x[t] * math.Sin(angle)
		}
		out[2*k] = re
		out[2*k+1] = im
	}
	return out
}

func TestTransformBinsMatchesFullTransformBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 130; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		full := Transform(x)
		if n&(n-1) != 0 {
			ref := refDirectDFT(x)
			for i := range ref {
				if math.Float64bits(full[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("n=%d value %d: Transform %v, reference %v", n, i, full[i], ref[i])
				}
			}
		}
		for bins := 0; bins <= n/2+2; bins++ {
			got := TransformBins(x, bins)
			want := full[:2*min(bins, n/2+1)]
			if len(got) != len(want) {
				t.Fatalf("n=%d bins=%d: %d values, want %d", n, bins, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d bins=%d value %d: %v, want %v", n, bins, i, got[i], want[i])
				}
			}
		}
		for _, drop := range []bool{false, true} {
			for nCoeffs := 0; nCoeffs <= n/2+2; nCoeffs++ {
				got := Coefficients(x, nCoeffs, drop)
				start := 0
				if drop {
					start = 2
				}
				var want []float64
				if start < len(full) {
					want = full[start:]
					if len(want) > 2*nCoeffs {
						want = want[:2*nCoeffs]
					}
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d Coefficients(%d, %v): %d values, want %d", n, nCoeffs, drop, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d Coefficients(%d, %v) value %d: %v, want %v", n, nCoeffs, drop, i, got[i], want[i])
					}
				}
			}
		}
	}
}
