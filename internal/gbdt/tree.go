// Package gbdt implements gradient-boosted decision trees in the XGBoost
// style (second-order gradients, regularized leaf weights), providing the
// per-time-point base classifiers of ECONOMY-K.
package gbdt

import "slices"

// node is one node of a regression tree, stored in a flat slice.
type node struct {
	feature   int     // split feature; -1 for leaves
	threshold float64 // go left when x[feature] < threshold
	left      int     // child indices into the tree's node slice
	right     int
	value     float64 // leaf weight
}

// tree is a regression tree over gradient/hessian statistics.
type tree struct {
	nodes []node
}

// treeParams bundles growth hyper-parameters.
type treeParams struct {
	maxDepth       int
	lambda         float64 // L2 on leaf weights
	gamma          float64 // min gain to split
	minChildWeight float64 // min hessian sum per child
}

// grower grows the trees of one Fit. Every node's split search needs
// its samples ordered by each feature's value. The root's orders are
// sorted once and shared read-only by every tree that sees the same
// rows; a child's order per feature is its parent's, split stably into
// left and right, and is kept only when its values strictly increase.
// Then it is the only ascending order of those values, so it is the one
// sortByValue would return: no ties, no ±0 pair and no NaN are left to
// order. Otherwise the child's order is rebuilt from its samples and
// sorted with sortByValue, exactly as a per-node sort would. Split
// choices, gradient sums and so every tree stay bit-identical to sorting
// every feature at every node.
type grower struct {
	X [][]float64
	p treeParams
	// rows holds each node's samples in a contiguous segment, in the
	// order the node received them; cols[f] holds the same segment
	// ordered by feature f.
	rows   []int
	cols   [][]valueSample
	tmpRow []int
	tmpCol []valueSample
	goLeft []bool // indexed by sample
}

// newGrower allocates the work buffers for trees over n rows of X.
func newGrower(X [][]float64, p treeParams) *grower {
	n := len(X)
	return &grower{
		X: X, p: p,
		rows:   make([]int, n),
		cols:   newColumns(len(X[0]), n),
		tmpRow: make([]int, n),
		tmpCol: make([]valueSample, n),
		goLeft: make([]bool, n),
	}
}

// newColumns allocates nFeatures orders of n samples in one block.
func newColumns(nFeatures, n int) [][]valueSample {
	flat := make([]valueSample, nFeatures*n)
	cols := make([][]valueSample, nFeatures)
	for f := range cols {
		cols[f] = flat[f*n : (f+1)*n : (f+1)*n]
	}
	return cols
}

// sortColumns fills cols[f] with samples ordered by feature f, the order
// sortByValue gives from samples' order.
func sortColumns(cols [][]valueSample, X [][]float64, samples []int) {
	for f, order := range cols {
		for k, i := range samples {
			order[k] = valueSample{v: X[i][f], i: i}
		}
		sortByValue(order)
	}
}

// build grows one regression tree on samples with gradients g and
// hessians h; root holds samples ordered by each feature (sortColumns)
// and is only read.
func (gr *grower) build(g, h []float64, samples []int, root [][]valueSample) *tree {
	t := &tree{}
	copy(gr.rows, samples)
	gr.grow(t, g, h, root, 0, len(samples), 0)
	return t
}

// grow appends the subtree for the samples in rows[lo:hi], whose
// per-feature orders are src[f][lo:hi], and returns its root index.
func (gr *grower) grow(t *tree, g, h []float64, src [][]valueSample, lo, hi, depth int) int {
	p := gr.p
	samples := gr.rows[lo:hi]
	var sumG, sumH float64
	for _, i := range samples {
		sumG += g[i]
		sumH += h[i]
	}
	leafValue := -sumG / (sumH + p.lambda)
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, value: leafValue})

	if depth >= p.maxDepth || len(samples) < 2 {
		return idx
	}
	feature, threshold, gain := bestSplit(src, g, h, lo, hi, sumG, sumH, p)
	if feature < 0 || gain <= p.gamma {
		return idx
	}
	nL := 0
	for _, i := range samples {
		left := gr.X[i][feature] < threshold
		gr.goLeft[i] = left
		if left {
			nL++
		}
	}
	if nL == 0 || nL == len(samples) {
		return idx
	}
	mid := lo + nL
	splitRows(samples, gr.tmpRow, gr.goLeft)
	if depth+1 < p.maxDepth {
		// Only children that search for a split need their orders.
		for f, col := range src {
			dst := gr.cols[f]
			splitOrder(col[lo:hi], dst[lo:hi], gr.tmpCol, gr.goLeft)
			gr.keepOrRebuild(dst[lo:mid], f, gr.rows[lo:mid])
			gr.keepOrRebuild(dst[mid:hi], f, gr.rows[mid:hi])
		}
	}
	l := gr.grow(t, g, h, gr.cols, lo, mid, depth+1)
	r := gr.grow(t, g, h, gr.cols, mid, hi, depth+1)
	t.nodes[idx].feature = feature
	t.nodes[idx].threshold = threshold
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

// keepOrRebuild keeps a child's split order of feature f when its
// values strictly increase and otherwise rebuilds it from the child's
// samples with sortByValue.
func (gr *grower) keepOrRebuild(order []valueSample, f int, samples []int) {
	for k := 1; k < len(order); k++ {
		if !(order[k-1].v < order[k].v) {
			for k, i := range samples {
				order[k] = valueSample{v: gr.X[i][f], i: i}
			}
			sortByValue(order)
			return
		}
	}
}

// splitRows moves the samples that go left to the front of rows and the
// rest after them, each side in its original order.
func splitRows(rows, tmp []int, goLeft []bool) {
	nl, nr := 0, 0
	for _, i := range rows {
		if goLeft[i] {
			rows[nl] = i
			nl++
		} else {
			tmp[nr] = i
			nr++
		}
	}
	copy(rows[nl:], tmp[:nr])
}

// splitOrder writes src's entries whose sample goes left to the front of
// dst and the rest after them, each side in src's order. dst may be src.
func splitOrder(src, dst, tmp []valueSample, goLeft []bool) {
	nl, nr := 0, 0
	for _, e := range src {
		if goLeft[e.i] {
			dst[nl] = e
			nl++
		} else {
			tmp[nr] = e
			nr++
		}
	}
	copy(dst[nl:], tmp[:nr])
}

// bestSplit scans every feature's order of the node's samples,
// cols[f][lo:hi], for the split maximizing the regularized gain
// ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)].
func bestSplit(cols [][]valueSample, g, h []float64, lo, hi int, sumG, sumH float64, p treeParams) (feature int, threshold, gain float64) {
	feature = -1
	parentScore := sumG * sumG / (sumH + p.lambda)
	for f, col := range cols {
		order := col[lo:hi]
		var gL, hL float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k].i
			gL += g[i]
			hL += h[i]
			// Only split between distinct feature values.
			if order[k].v == order[k+1].v {
				continue
			}
			hR := sumH - hL
			if hL < p.minChildWeight || hR < p.minChildWeight {
				continue
			}
			gR := sumG - gL
			score := gL*gL/(hL+p.lambda) + gR*gR/(hR+p.lambda) - parentScore
			if score/2 > gain {
				gain = score / 2
				feature = f
				threshold = (order[k].v + order[k+1].v) / 2
			}
		}
	}
	return feature, threshold, gain
}

// valueSample is one sample's value of the feature being scanned.
type valueSample struct {
	v float64
	i int
}

// sortByValue orders samples by feature value. The gradient sums in
// bestSplit add samples in this order, so tie order feeds their bits:
// it must be the permutation sort.Slice with the same < produced. It
// is — sort.Slice and slices.SortFunc run the same generated pdqsort,
// and the comparator is negative exactly when a.v < b.v, so every
// comparison and swap matches — without reflection or an indirect
// X[i][f] load per comparison.
func sortByValue(order []valueSample) {
	slices.SortFunc(order, func(a, b valueSample) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})
}

// predict evaluates the tree for one sample.
func (t *tree) predict(x []float64) float64 {
	idx := 0
	for {
		n := t.nodes[idx]
		if n.feature < 0 {
			return n.value
		}
		if n.feature < len(x) && x[n.feature] < n.threshold {
			idx = n.left
		} else {
			idx = n.right
		}
	}
}
