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

// buildTree grows a regression tree on samples (indices into X) with
// gradients g and hessians h.
func buildTree(X [][]float64, g, h []float64, samples []int, p treeParams) *tree {
	t := &tree{}
	t.grow(X, g, h, samples, p, 0)
	return t
}

// grow appends a subtree for the given samples and returns its root index.
func (t *tree) grow(X [][]float64, g, h []float64, samples []int, p treeParams, depth int) int {
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
	feature, threshold, gain := bestSplit(X, g, h, samples, sumG, sumH, p)
	if feature < 0 || gain <= p.gamma {
		return idx
	}
	var left, right []int
	for _, i := range samples {
		if X[i][feature] < threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return idx
	}
	l := t.grow(X, g, h, left, p, depth+1)
	r := t.grow(X, g, h, right, p, depth+1)
	t.nodes[idx].feature = feature
	t.nodes[idx].threshold = threshold
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

// bestSplit scans every feature for the split maximizing the regularized
// gain ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)].
func bestSplit(X [][]float64, g, h []float64, samples []int, sumG, sumH float64, p treeParams) (feature int, threshold, gain float64) {
	feature = -1
	nFeatures := len(X[samples[0]])
	parentScore := sumG * sumG / (sumH + p.lambda)
	order := make([]valueSample, len(samples))
	for f := 0; f < nFeatures; f++ {
		for k, i := range samples {
			order[k] = valueSample{v: X[i][f], i: i}
		}
		sortByValue(order)
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
