package ml

import "sort"

// The reference CART builder: the sort-per-node splitter and the
// matrix-copy bootstrap that trained every tree before the presorted
// builder replaced them. It stays here as the independent oracle the
// exact-identity tests compare Marshal bytes against — it shares no
// code with tree.go beyond giniImpurity, the RNG and the node layout.
// The one deliberate difference from the old trainer is that a forest's
// trees index classes by the forest's class list, not by whatever
// classes their bootstrap happened to draw.

type refBuilder struct {
	X        [][]float64
	y        []int
	nclasses int
	tree     *DecisionTree
	minLeaf  int
	rng      *rng
}

// refFitTree is the reference DecisionTree.Fit.
func refFitTree(t *DecisionTree, X [][]float64, y []int) {
	classes, cidx := classIndex(y)
	yi := make([]int, len(y))
	for i, c := range y {
		yi[i] = cidx[c]
	}
	refGrow(t, X, yi, classes)
}

// refGrow grows t over class-indexed labels yi.
func refGrow(t *DecisionTree, X [][]float64, yi []int, classes []int) {
	t.classes = classes
	t.nfeat = len(X)
	t.nodes = t.nodes[:0]
	samples := make([]int, len(yi))
	for i := range samples {
		samples[i] = i
	}
	b := &refBuilder{
		X: X, y: yi, nclasses: len(classes), tree: t,
		minLeaf: max(1, t.MinSamplesLeaf),
		rng:     newRNG(t.Seed + 1),
	}
	b.build(samples, 0)
}

// refFitForest is the reference RandomForest.Fit: one copied bootstrap
// matrix per tree, trees fitted serially.
func refFitForest(f *RandomForest, X [][]float64, y []int) {
	if f.NEstimators <= 0 {
		f.NEstimators = 16
	}
	n := len(y)
	classes, cidx := classIndex(y)
	yi := make([]int, n)
	for i, c := range y {
		yi[i] = cidx[c]
	}
	f.classes = classes
	f.nfeat = len(X)
	f.trees = nil
	f.prep.Store(nil)
	for ti := 0; ti < f.NEstimators; ti++ {
		t := &DecisionTree{
			MaxDepth:       f.MaxDepth,
			MinSamplesLeaf: f.MinSamplesLeaf,
			MaxFeatures:    f.mtry(len(X)),
			Seed:           f.Seed + int64(ti)*7919,
		}
		bx, by := refBootstrap(X, yi, n, newRNG(f.Seed+int64(ti)*104729+1))
		refGrow(t, bx, by, classes)
		f.trees = append(f.trees, t)
	}
}

// refBootstrap draws n rows with replacement, materializing the
// sampled columns (column-major).
func refBootstrap(X [][]float64, y []int, n int, r *rng) ([][]float64, []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	bx := make([][]float64, len(X))
	for fi, col := range X {
		sampled := make([]float64, n)
		for i, s := range idx {
			sampled[i] = col[s]
		}
		bx[fi] = sampled
	}
	by := make([]int, n)
	for i, s := range idx {
		by[i] = y[s]
	}
	return bx, by
}

// build grows the subtree over samples and returns its node index.
func (b *refBuilder) build(samples []int, depth int) int32 {
	counts := make([]float64, b.nclasses)
	for _, s := range samples {
		counts[b.y[s]]++
	}
	nodeIdx := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{left: -1, right: -1})

	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	stop := pure <= 1 ||
		(b.tree.MaxDepth > 0 && depth >= b.tree.MaxDepth) ||
		len(samples) < 2*b.minLeaf
	if !stop {
		feat, thresh, ok := b.bestSplit(samples, counts)
		if ok {
			var left, right []int
			for _, s := range samples {
				if b.X[feat][s] <= thresh {
					left = append(left, s)
				} else {
					right = append(right, s)
				}
			}
			if len(left) >= b.minLeaf && len(right) >= b.minLeaf {
				l := b.build(left, depth+1)
				r := b.build(right, depth+1)
				nd := &b.tree.nodes[nodeIdx]
				nd.feature = int32(feat)
				nd.threshold = thresh
				nd.left = l
				nd.right = r
				return nodeIdx
			}
		}
	}
	total := float64(len(samples))
	probs := make([]float64, b.nclasses)
	for i, c := range counts {
		probs[i] = c / total
	}
	b.tree.nodes[nodeIdx].probs = probs
	return nodeIdx
}

// bestSplit scans a (possibly random) subset of features for the
// threshold minimizing weighted Gini impurity, re-sorting the node's
// samples per candidate feature.
func (b *refBuilder) bestSplit(samples []int, totalCounts []float64) (int, float64, bool) {
	nfeat := len(b.X)
	featOrder := make([]int, nfeat)
	for i := range featOrder {
		featOrder[i] = i
	}
	tryFeats := nfeat
	if b.tree.MaxFeatures > 0 && b.tree.MaxFeatures < nfeat {
		tryFeats = b.tree.MaxFeatures
		for i := 0; i < tryFeats; i++ {
			j := i + b.rng.Intn(nfeat-i)
			featOrder[i], featOrder[j] = featOrder[j], featOrder[i]
		}
	}

	n := float64(len(samples))
	bestGain := 1e-12
	bestFeat, bestThresh := -1, 0.0
	parentImp := giniImpurity(totalCounts, n)

	vals := make([]float64, len(samples))
	order := make([]int, len(samples))
	leftCounts := make([]float64, b.nclasses)
	rightCounts := make([]float64, b.nclasses)

	for fi := 0; fi < tryFeats; fi++ {
		f := featOrder[fi]
		col := b.X[f]
		for i, s := range samples {
			vals[i] = col[s]
			order[i] = i
		}
		sort.Slice(order, func(a, c int) bool { return vals[order[a]] < vals[order[c]] })

		copy(rightCounts, totalCounts)
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		nLeft := 0.0
		for i := 0; i < len(order)-1; i++ {
			s := samples[order[i]]
			cls := b.y[s]
			leftCounts[cls]++
			rightCounts[cls]--
			nLeft++
			v, vNext := vals[order[i]], vals[order[i+1]]
			if v == vNext {
				continue // cannot split between equal values
			}
			nRight := n - nLeft
			if int(nLeft) < b.minLeaf || int(nRight) < b.minLeaf {
				continue
			}
			imp := (nLeft*giniImpurity(leftCounts, nLeft) + nRight*giniImpurity(rightCounts, nRight)) / n
			gain := parentImp - imp
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + vNext) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThresh, true
}
