package minirocket

import (
	"math"
	"math/bits"
	"sort"
)

// orderStats sets out[b] to pool[pos[b]] as it would read after
// sort.Float64s(pool), bit for bit. pos must be non-decreasing; pool is
// left permuted.
//
// When pool holds no NaN and no −0, values that compare equal have the
// same bits, so the value at a position of any ascending order is the
// sort's, and a multi-position quickselect finds every position in
// expected linear time. Otherwise the sort's placement of equal-comparing
// values (NaNs among themselves, −0 beside +0) decides the bits, so the
// pool is sorted as before.
func orderStats(out, pool []float64, pos []int) {
	selectable := true
	for _, v := range pool {
		if math.IsNaN(v) || (v == 0 && math.Signbit(v)) {
			selectable = false
			break
		}
	}
	if selectable {
		selectPositions(pool, 0, len(pool), pos, 2*bits.Len(uint(len(pool))))
	} else {
		sort.Float64s(pool)
	}
	for b, p := range pos {
		out[b] = pool[p]
	}
}

// selectPositions permutes a[lo:hi], which holds no NaN, so that every
// position in pos (non-decreasing, all in [lo, hi)) holds the value an
// ascending sort puts there. A three-way partition around a
// median-of-three pivot settles the run of pivot-equal values at once;
// a short range, or one still open after depth partitions, is sorted.
func selectPositions(a []float64, lo, hi int, pos []int, depth int) {
	for len(pos) > 0 {
		if hi-lo <= 16 || depth == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		depth--
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Two branch-free Lomuto passes: the first moves the values
		// below p to the front, the second the values equal to p to the
		// front of the rest. Each swaps a[i] with the first value not
		// yet moved and advances that boundary by the comparison's
		// outcome, so no branch depends on the data.
		lt := lo
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i] = a[lt]
			a[lt] = v
			lt += b2i(v < p)
		}
		gt := lt
		for i := lt; i < hi; i++ {
			v := a[i]
			a[i] = a[gt]
			a[gt] = v
			gt += b2i(v <= p)
		}
		// a[lo:lt] < p, a[lt:gt] == p, a[gt:hi] > p.
		below := sort.SearchInts(pos, lt)
		above := sort.SearchInts(pos, gt)
		selectPositions(a, lo, lt, pos[:below], depth)
		lo, pos = gt, pos[above:]
	}
}

// median3 returns the median of three values.
func median3(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	if x > y {
		return x
	}
	return y
}
