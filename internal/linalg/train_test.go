package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b have the same bits, counting any two
// NaNs as equal: which payload survives when two NaNs meet is not fixed
// for Go's scalar code either.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%016x), twin %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials are the values the kernels must carry exactly like their
// twins: signed zeros, NaN, infinities and subnormals.
var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072e-308, math.MaxFloat64, 1e-300,
}

// values reads len(out) floats from data, eight bytes each (cycling),
// mapping a few byte patterns onto specials so fuzzed inputs reach them.
func values(data []byte, out []float64) {
	for i := range out {
		if len(data) < 8 {
			out[i] = float64(i%7) - 3.25
			continue
		}
		off := (i * 8) % (len(data) - 7)
		bits := binary.LittleEndian.Uint64(data[off:])
		if bits%97 == 0 {
			out[i] = specials[(bits>>8)%uint64(len(specials))]
			continue
		}
		// Keep most values in a range where sums stay finite.
		out[i] = float64(int64(bits>>11)%2001-1000) / 97
		if bits%211 == 0 {
			out[i] = math.Float64frombits(bits)
		}
	}
}

// checkConvValid runs ConvValid on n outputs of c rows with k taps read
// from offset off of each row, against its Go twin.
func checkConvValid(t *testing.T, data []byte, n, c, k, off int) {
	t.Helper()
	rows := make([][]float64, c)
	for i := range rows {
		buf := make([]float64, off+n+k-1+3)
		values(data[min(len(data), i):], buf)
		rows[i] = buf[off:]
	}
	w := make([]float64, c*k)
	values(data[min(len(data), 3):], w)
	var bias [1]float64
	values(data[min(len(data), 5):], bias[:])
	got := make([]float64, n)
	want := make([]float64, n)
	ConvValid(got, bias[0], w, rows)
	convValidGo(want, bias[0], w, rows, k)
	sameFloats(t, "ConvValid", got, want)
}

func TestConvValidMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 4, 5, 8, 13, 15, 16, 17, 31, 32, 33, 37, 100, 121} {
		for _, ck := range [][2]int{{1, 1}, {1, 8}, {6, 8}, {8, 5}, {16, 3}, {3, 2}} {
			data := make([]byte, 256)
			rng.Read(data)
			checkConvValid(t, data, n, ck[0], ck[1], rng.Intn(3))
		}
	}
}

// TestConvValidMatchesPerTapSum checks the twin itself against the
// textbook sum, so the kernel is pinned to the loop Conv1D documents.
func TestConvValidMatchesPerTapSum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, k, n := 3, 5, 40
	xs := make([][]float64, c)
	for i := range xs {
		xs[i] = randSlice(rng, n+k-1)
	}
	w := randSlice(rng, c*k)
	got := make([]float64, n)
	ConvValid(got, 0.5, w, xs)
	for j := range got {
		sum := 0.5
		for ci := 0; ci < c; ci++ {
			for i := 0; i < k; i++ {
				sum += w[ci*k+i] * xs[ci][j+i]
			}
		}
		if math.Float64bits(got[j]) != math.Float64bits(sum) {
			t.Fatalf("output %d: %v, want %v", j, got[j], sum)
		}
	}
}

func checkLagDot8(t *testing.T, data []byte, n int, offs [8]int) {
	t.Helper()
	g := make([]float64, n)
	values(data, g)
	var xs [8][]float64
	for i := range xs {
		buf := make([]float64, offs[i]+n+1)
		values(data[min(len(data), 2*i+1):], buf)
		xs[i] = buf[offs[i]:]
	}
	var got, want [16]float64
	values(data[min(len(data), 7):], got[:])
	want = got
	LagDot8(&got, g, &xs)
	lagDot8Go(&want, g, &xs)
	sameFloats(t, "LagDot8", got[:], want[:])
}

func TestLagDot8MatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 9, 64, 121} {
		for trial := 0; trial < 4; trial++ {
			data := make([]byte, 200)
			rng.Read(data)
			var offs [8]int
			for i := range offs {
				offs[i] = rng.Intn(4)
			}
			checkLagDot8(t, data, n, offs)
		}
	}
}

func checkAdamStep(t *testing.T, data []byte, n int) {
	t.Helper()
	state := make([]float64, 4*n)
	values(data, state)
	w, m, v, grad := state[:n], state[n:2*n], state[2*n:3*n], state[3*n:]
	for i := range v {
		v[i] = math.Abs(v[i]) // a second moment is never negative
	}
	var k [5]float64
	values(data[min(len(data), 3):], k[:])
	c := AdamConsts{Batch: 3, L2: 1e-4, Beta1: 0.9, OneMinusBeta1: 1 - 0.9,
		Beta2: 0.999, OneMinusBeta2: 1 - 0.999, LR: 0.05,
		Corr1: 1 - math.Pow(0.9, 3), Corr2: 1 - math.Pow(0.999, 3), Eps: 1e-8}
	if len(data) > 0 && data[0]%4 == 0 {
		// Fuzzed constants, so special values reach every operand.
		c.Batch, c.L2, c.LR, c.Corr1, c.Corr2 = k[0], k[1], k[2], k[3], k[4]
	}
	w2 := append([]float64(nil), w...)
	m2 := append([]float64(nil), m...)
	v2 := append([]float64(nil), v...)
	AdamStep(w, m, v, grad, &c)
	adamStepGo(w2, m2, v2, grad, &c)
	sameFloats(t, "AdamStep w", w, w2)
	sameFloats(t, "AdamStep m", m, m2)
	sameFloats(t, "AdamStep v", v, v2)
}

func TestAdamStepMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 8, 33, 500} {
		for trial := 0; trial < 4; trial++ {
			data := make([]byte, 160)
			rng.Read(data)
			checkAdamStep(t, data, n)
		}
	}
}

// FuzzConvValid holds the assembly ConvValid to its Go twin bit for bit
// over fuzzed lengths, channel and tap counts, row offsets and values.
func FuzzConvValid(f *testing.F) {
	f.Add(uint8(37), uint8(6), uint8(8), uint8(1), []byte("conv seed: sixteen outputs and a remainder"))
	f.Add(uint8(16), uint8(1), uint8(8), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 11, 22, 33, 44, 55, 66, 77, 88})
	f.Fuzz(func(t *testing.T, n, c, k, off uint8, data []byte) {
		checkConvValid(t, data, 1+int(n)%130, 1+int(c)%17, 1+int(k)%9, int(off)%4)
	})
}

// FuzzLagDot8 holds the assembly LagDot8 to its Go twin bit for bit.
func FuzzLagDot8(f *testing.F) {
	f.Add(uint8(40), uint8(0x5a), []byte("lag dot seed: eight rows sharing one gradient"))
	f.Add(uint8(1), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, n, offs uint8, data []byte) {
		var o [8]int
		for i := range o {
			o[i] = int(offs>>i) & 3
		}
		checkLagDot8(t, data, 1+int(n)%130, o)
	})
}

// FuzzAdamStep holds the assembly AdamStep to its Go twin bit for bit.
func FuzzAdamStep(f *testing.F) {
	f.Add(uint8(9), []byte("adam seed: odd length leaves a scalar tail"))
	f.Add(uint8(2), []byte{4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		checkAdamStep(t, data, 1+int(n)%70)
	})
}

// BenchmarkAdamStep times one dense step over 2000 weights from a fixed
// state, the kernel against its Go twin; both copy the state in first.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const n = 2000
	init := randSlice(rng, 4*n)
	for i := 2 * n; i < 3*n; i++ {
		init[i] = math.Abs(init[i])
	}
	state := make([]float64, 4*n)
	w, m, v, grad := state[:n], state[n:2*n], state[2*n:3*n], state[3*n:]
	c := AdamConsts{Batch: 16, L2: 1e-4, Beta1: 0.9, OneMinusBeta1: 1 - 0.9,
		Beta2: 0.999, OneMinusBeta2: 1 - 0.999, LR: 0.05, Corr1: 0.5, Corr2: 0.01, Eps: 1e-8}
	for _, k := range []struct {
		name string
		step func(w, m, v, grad []float64, c *AdamConsts)
	}{{"kernel", AdamStep}, {"twin", adamStepGo}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(state, init)
				k.step(w, m, v, grad, &c)
			}
		})
	}
}
