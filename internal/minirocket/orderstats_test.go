package minirocket

import (
	"math"
	"sort"
	"testing"
)

// fuzzFloats decodes one value per byte: 251 to 255 stand for −Inf, +Inf,
// +0, −0 and NaN, the rest for levels distinct finite values on a grid
// (all 251 when levels is 0; few levels make long runs of duplicates).
func fuzzFloats(data []byte, levels uint8) []float64 {
	out := make([]float64, len(data))
	for i, b := range data {
		switch b {
		case 255:
			out[i] = math.NaN()
		case 254:
			out[i] = math.Copysign(0, -1)
		case 253:
			out[i] = 0
		case 252:
			out[i] = math.Inf(1)
		case 251:
			out[i] = math.Inf(-1)
		default:
			v := int(b)
			if levels != 0 {
				v %= int(levels)
			}
			out[i] = float64(v)*0.75 - 20
		}
	}
	return out
}

// FuzzOrderStats holds orderStats to sort.Float64s followed by indexing,
// bit for bit. Each byte of data is one pool value: a few bytes stand for
// NaN, −0, +0 and ±Inf (so both fallbacks and the selection run), the
// rest for levels distinct values (few levels make long runs of
// duplicates). Each byte of at is one position, reduced modulo the pool
// length and sorted, as the quantile positions of Fit are.
func FuzzOrderStats(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 0}, []byte{0, 2, 4}, uint8(0))
	f.Fuzz(func(t *testing.T, data, at []byte, levels uint8) {
		if len(data) == 0 || len(at) == 0 || len(data) > 4096 {
			return
		}
		pool := fuzzFloats(data, levels)
		pos := make([]int, len(at))
		for b, x := range at {
			pos[b] = int(x) * len(pool) / 256
		}
		sort.Ints(pos)

		sorted := append([]float64(nil), pool...)
		sort.Float64s(sorted)
		got := make([]float64, len(pos))
		orderStats(got, pool, pos)
		for b, p := range pos {
			if math.Float64bits(got[b]) != math.Float64bits(sorted[p]) {
				t.Fatalf("position %d of %d: %v (%016x), sort gives %v (%016x)",
					p, len(pool), got[b], math.Float64bits(got[b]), sorted[p], math.Float64bits(sorted[p]))
			}
		}
	})
}
