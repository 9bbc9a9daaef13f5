package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

// buildTree grows one tree on samples with a fresh grower, sorting the
// root's columns from samples first.
func buildTree(X [][]float64, g, h []float64, samples []int, p treeParams) *tree {
	root := newColumns(len(X[0]), len(samples))
	sortColumns(root, X, samples)
	return newGrower(X, p).build(g, h, samples, root)
}

// refGrow is tree growth that sorts every feature at every node with
// sortByValue: the per-node search the presorted grower must match.
func refGrow(t *tree, X [][]float64, g, h []float64, samples []int, p treeParams, depth int) int {
	var sumG, sumH float64
	for _, i := range samples {
		sumG += g[i]
		sumH += h[i]
	}
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, value: -sumG / (sumH + p.lambda)})
	if depth >= p.maxDepth || len(samples) < 2 {
		return idx
	}
	cols := newColumns(len(X[samples[0]]), len(samples))
	sortColumns(cols, X, samples)
	feature, threshold, gain := bestSplit(cols, g, h, 0, len(samples), sumG, sumH, p)
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
	l := refGrow(t, X, g, h, left, p, depth+1)
	r := refGrow(t, X, g, h, right, p, depth+1)
	t.nodes[idx].feature = feature
	t.nodes[idx].threshold = threshold
	t.nodes[idx].left = l
	t.nodes[idx].right = r
	return idx
}

// sameTree reports the first node where two trees differ in structure,
// feature, or the bits of a threshold or leaf value.
func sameTree(t *testing.T, got, want *tree) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%d nodes, per-node sort grew %d", len(got.nodes), len(want.nodes))
	}
	for k, a := range got.nodes {
		b := want.nodes[k]
		if a.feature != b.feature || a.left != b.left || a.right != b.right ||
			math.Float64bits(a.threshold) != math.Float64bits(b.threshold) ||
			math.Float64bits(a.value) != math.Float64bits(b.value) {
			t.Fatalf("node %d: %+v, per-node sort gave %+v", k, a, b)
		}
	}
}

// FuzzGrowTree holds presorted growth to per-node sorting, node by node
// at the bit level. Each byte of data is one cell of a row-major matrix
// with the given number of features: small levels (heavy ties), ±0 and
// NaN. Two trees with different gradients share one grower and one set
// of root columns, as the trees of one Fit do; a subset of rows in
// shuffled order stands in for a subsampled round.
func FuzzGrowTree(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(3), int64(1), false)
	f.Fuzz(func(t *testing.T, data []byte, features, depth uint8, seed int64, subsample bool) {
		nFeatures := 1 + int(features)%8
		n := len(data) / nFeatures
		if n < 1 || n > 400 {
			return
		}
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, nFeatures)
			for j := range X[i] {
				switch b := data[i*nFeatures+j]; {
				case b == 255:
					X[i][j] = math.NaN()
				case b == 254:
					X[i][j] = math.Copysign(0, -1)
				case b >= 128:
					X[i][j] = float64(b%4) - 1
				default:
					X[i][j] = float64(b) * 0.25
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		samples := make([]int, n)
		for i := range samples {
			samples[i] = i
		}
		if subsample && n > 2 {
			samples = rng.Perm(n)[:2+rng.Intn(n-1)]
		}
		p := treeParams{maxDepth: 1 + int(depth)%6, lambda: 1, minChildWeight: 0.05 * float64(1+rng.Intn(8))}
		root := newColumns(nFeatures, len(samples))
		sortColumns(root, X, samples)
		gr := newGrower(X, p)
		for k := 0; k < 2; k++ {
			g := make([]float64, n)
			h := make([]float64, n)
			for i := range g {
				g[i] = rng.NormFloat64()
				h[i] = 0.05 + rng.Float64()
			}
			want := &tree{}
			refGrow(want, X, g, h, samples, p, 0)
			sameTree(t, gr.build(g, h, samples, root), want)
		}
	})
}
