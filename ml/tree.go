package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DecisionTree is a CART classification tree split on the Gini
// impurity criterion. The zero value is usable with defaults; set
// hyperparameters before Fit.
type DecisionTree struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures is the number of features examined per split;
	// 0 means all features (random forests set sqrt(p)).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64

	header
	nodes []treeNode
}

// treeNode is one node in the flattened tree, numbered in preorder:
// an internal node's left child is the next node, its right child
// follows the left subtree. Leaves have left == right == -1.
type treeNode struct {
	feature   int32
	left      int32
	right     int32
	threshold float64
	// probs holds the class distribution at the node (leaves only).
	probs []float64
}

// NewDecisionTree returns a tree with common defaults (depth 12,
// one-sample leaves).
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxDepth: 12, MinSamplesLeaf: 1}
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "decision_tree" }

// Fit implements Classifier: FitWorkers with NumCPU workers.
func (t *DecisionTree) Fit(X [][]float64, y []int) error { return t.FitWorkers(X, y, 0) }

// FitWorkers fits the tree, presorting the feature columns on up to
// workers goroutines (0 means NumCPU); the fitted bytes do not depend
// on the worker count.
func (t *DecisionTree) FitWorkers(X [][]float64, y []int, workers int) error {
	ts, err := newTrainSet(X, y, workers)
	if err != nil {
		return err
	}
	w := make([]int32, len(y))
	for i := range w {
		w[i] = 1
	}
	ts.grow(t, w)
	return nil
}

// trainSet is what every tree of one fit shares read-only: the feature
// columns, the class-indexed labels, and each column's row ids sorted
// once by value. Trees never sort again (see treeBuilder).
type trainSet struct {
	X       [][]float64
	y       []int32 // class index per row
	classes []int
	// order[f] lists the row ids ascending by X[f], NaN last: it routes
	// right at prediction, so it must sit right of every threshold.
	order [][]int32
}

// maxTreeFeatures is the widest matrix a tree trains on: the prepared
// forest packs a feature index into 16 bits (packNode).
const maxTreeFeatures = 1 << 16

// newTrainSet validates X, y and presorts each feature column, one
// column per parallelMorsels index.
func newTrainSet(X [][]float64, y []int, workers int) (*trainSet, error) {
	n, err := validateXY(X, y)
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ml: tree training supports at most %d rows, got %d", math.MaxInt32, n)
	}
	if len(X) > maxTreeFeatures {
		return nil, fmt.Errorf("ml: tree training supports at most %d features, got %d", maxTreeFeatures, len(X))
	}
	classes, cidx := classIndex(y)
	ts := &trainSet{X: X, y: make([]int32, n), classes: classes, order: make([][]int32, len(X))}
	for i, c := range y {
		ts.y[i] = int32(cidx[c])
	}
	type cell struct {
		v float64
		r int32
	}
	parallelMorsels(workers, len(X), func(f int) {
		cells := make([]cell, 0, n)
		var nans []int32
		for r, v := range X[f] {
			if v != v {
				nans = append(nans, int32(r))
			} else {
				cells = append(cells, cell{v, int32(r)})
			}
		}
		slices.SortFunc(cells, func(a, b cell) int { return cmp.Compare(a.v, b.v) })
		order := make([]int32, 0, n)
		for _, c := range cells {
			order = append(order, c.r)
		}
		ts.order[f] = append(order, nans...)
	})
	return ts, nil
}

// treeBuilder grows one exact CART tree without sorting. The tree's
// sample is a multiplicity per row (w; a bootstrap draws rows with
// replacement, a plain tree has all ones). lists[f] holds the rows
// with w > 0 in trainSet.order[f] order, and a node is the same
// [lo, hi) range of every list, so a split scan is one linear pass and
// pushing a node's rows down is a stable partition of each list.
//
// The fitted bytes are a function of (data, hyperparameters, seed)
// alone: nodes are numbered and the split RNG is consumed in
// depth-first preorder, gains are float arithmetic on integer-valued
// class counts (so neither row order within a tie nor a multiplicity
// versus repeated rows can change them), and rows are routed by the
// stored x <= threshold predicate — the one PREDICT applies — not by
// scan position, which differs when a midpoint rounds onto its upper
// neighbour.
type treeBuilder struct {
	ts      *trainSet
	tree    *DecisionTree
	minLeaf int
	rng     *rng
	w       []int32
	lists   [][]int32
	scratch []int32 // right-hand rows of the list being partitioned
	goLeft  []uint8 // per row id: 1 if the current split sends it left

	featOrder                       []int
	counts, leftCounts, rightCounts []float64
}

// grow fits t on the rows of ts weighted by w.
func (ts *trainSet) grow(t *DecisionTree, w []int32) {
	nfeat, k := len(ts.X), len(ts.classes)
	m := 0
	for _, c := range w {
		if c > 0 {
			m++
		}
	}
	rows := make([]int32, (nfeat+1)*m)
	lists := make([][]int32, nfeat)
	for f := range lists {
		list := rows[f*m : f*m : (f+1)*m]
		for _, r := range ts.order[f] {
			if w[r] > 0 {
				list = append(list, r)
			}
		}
		lists[f] = list
	}
	b := &treeBuilder{
		ts: ts, tree: t,
		minLeaf:   max(1, t.MinSamplesLeaf),
		rng:       newRNG(t.Seed + 1),
		w:         w,
		lists:     lists,
		scratch:   rows[nfeat*m:],
		goLeft:    make([]uint8, len(w)),
		featOrder: make([]int, nfeat),
		counts:    make([]float64, k), leftCounts: make([]float64, k), rightCounts: make([]float64, k),
	}
	t.header = header{classes: ts.classes, nfeat: nfeat}
	t.nodes = t.nodes[:0]
	b.build(0, m, 0)
}

// build grows the subtree over rows [lo, hi) of every list and returns
// its node index.
func (b *treeBuilder) build(lo, hi, depth int) int32 {
	counts := b.counts
	clear(counts)
	for _, r := range b.lists[0][lo:hi] {
		counts[b.ts.y[r]] += float64(b.w[r])
	}
	total, pure := 0.0, 0
	for _, c := range counts {
		total += c
		if c > 0 {
			pure++
		}
	}
	nodeIdx := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{left: -1, right: -1})

	stop := pure <= 1 ||
		(b.tree.MaxDepth > 0 && depth >= b.tree.MaxDepth) ||
		int(total) < 2*b.minLeaf
	if !stop {
		if feat, thresh, ok := b.bestSplit(lo, hi, total); ok {
			if mid, ok := b.partition(lo, hi, feat, thresh); ok {
				l := b.build(lo, mid, depth+1)
				r := b.build(mid, hi, depth+1)
				nd := &b.tree.nodes[nodeIdx]
				nd.feature = int32(feat)
				nd.threshold = thresh
				nd.left = l
				nd.right = r
				return nodeIdx
			}
		}
	}
	// Leaf: normalize counts into a class distribution.
	probs := make([]float64, len(counts))
	for i, c := range counts {
		probs[i] = c / total
	}
	b.tree.nodes[nodeIdx].probs = probs
	return nodeIdx
}

// bestSplit scans a (possibly random) subset of features for the
// threshold minimizing weighted Gini impurity over the node whose
// class counts are b.counts. Candidates are midpoints between adjacent
// distinct values; the NaN tail of a list is never one.
func (b *treeBuilder) bestSplit(lo, hi int, n float64) (int, float64, bool) {
	nfeat := len(b.lists)
	featOrder := b.featOrder
	for i := range featOrder {
		featOrder[i] = i
	}
	tryFeats := nfeat
	if b.tree.MaxFeatures > 0 && b.tree.MaxFeatures < nfeat {
		tryFeats = b.tree.MaxFeatures
		// Partial Fisher-Yates to pick tryFeats random features.
		for i := 0; i < tryFeats; i++ {
			j := i + b.rng.Intn(nfeat-i)
			featOrder[i], featOrder[j] = featOrder[j], featOrder[i]
		}
	}

	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	parentImp := giniImpurity(b.counts, n)
	leftCounts, rightCounts := b.leftCounts, b.rightCounts
	y, w := b.ts.y, b.w

	for _, f := range featOrder[:tryFeats] {
		col := b.ts.X[f]
		seg := b.lists[f][lo:hi]
		copy(rightCounts, b.counts)
		clear(leftCounts)
		nLeft := 0.0
		v := col[seg[0]]
		for i, r := range seg[:len(seg)-1] {
			wr := float64(w[r])
			leftCounts[y[r]] += wr
			rightCounts[y[r]] -= wr
			nLeft += wr
			vPrev := v
			v = col[seg[i+1]]
			if v != v {
				break // the rest of the list is NaN
			}
			if vPrev == v {
				continue // cannot split between equal values
			}
			nRight := n - nLeft
			if int(nLeft) < b.minLeaf || int(nRight) < b.minLeaf {
				continue
			}
			imp := (nLeft*giniImpurity(leftCounts, nLeft) + nRight*giniImpurity(rightCounts, nRight)) / n
			if gain := parentImp - imp; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (vPrev + v) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// partition routes the node's rows by X[feat] <= thresh and stably
// partitions every list's [lo, hi) into left rows then right rows,
// returning the boundary. It declines, touching no list, when either
// side would hold fewer than minLeaf samples.
func (b *treeBuilder) partition(lo, hi, feat int, thresh float64) (int, bool) {
	col := b.ts.X[feat]
	nl, wl, wr := 0, 0, 0
	for _, r := range b.lists[feat][lo:hi] {
		if col[r] <= thresh {
			b.goLeft[r] = 1
			nl++
			wl += int(b.w[r])
		} else {
			b.goLeft[r] = 0
			wr += int(b.w[r])
		}
	}
	if wl < b.minLeaf || wr < b.minLeaf {
		return 0, false
	}
	for f, list := range b.lists {
		if f == feat {
			continue // sorted by the split feature: left rows are already its prefix
		}
		// Every row is written to both sides and only the taken side's
		// cursor advances, so the loop carries no data-dependent branch.
		seg, right := list[lo:hi], b.scratch
		i, j := 0, 0
		for _, r := range seg {
			l := int(b.goLeft[r])
			seg[i] = r
			right[j] = r
			i += l
			j += 1 - l
		}
		copy(seg[i:], right[:j])
	}
	return lo + nl, true
}

func giniImpurity(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range counts {
		p := c / n
		sumSq += p * p
	}
	return 1 - sumSq
}

// probsInto is the tree's kernel: each row walks root to leaf over
// the chunk's columnar slices (no per-row gather; the chunk's columns
// stay cache-resident across rows) and copies the leaf's class
// distribution. NaN features compare false and descend right.
func (t *DecisionTree) probsInto(X [][]float64, n int, probs []float64) {
	k := len(t.classes)
	nodes := t.nodes
	for r := 0; r < n; r++ {
		i := int32(0)
		for nodes[i].left >= 0 {
			nd := &nodes[i]
			if X[nd.feature][r] <= nd.threshold {
				i = nd.left
			} else {
				i = nd.right
			}
		}
		copy(probs[r*k:r*k+k], nodes[i].probs)
	}
}

// Depth returns the maximum depth of the fitted tree (0 for a stump).
// Children follow their parent in preorder, so one forward pass sees
// every parent's depth before its children's.
func (t *DecisionTree) Depth() int {
	depth := make([]int32, len(t.nodes))
	maxDepth := int32(0)
	for i, nd := range t.nodes {
		if nd.left >= 0 {
			depth[nd.left], depth[nd.right] = depth[i]+1, depth[i]+1
			maxDepth = max(maxDepth, depth[i]+1)
		}
	}
	return int(maxDepth)
}

// NumNodes returns the number of nodes in the fitted tree.
func (t *DecisionTree) NumNodes() int { return len(t.nodes) }
