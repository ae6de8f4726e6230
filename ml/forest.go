package ml

import (
	"math"
	"sort"
	"sync/atomic"
)

// RandomForest is a bagged ensemble of CART trees with per-split
// feature subsampling — the model the paper trains in Listing 1
// (sklearn.ensemble.RandomForestClassifier analog). Trees are fitted
// in parallel across a worker pool.
type RandomForest struct {
	// NEstimators is the number of trees (default 16).
	NEstimators int
	// MaxDepth bounds each tree's depth (default 12; 0 = unbounded).
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures is the per-split feature budget; 0 = sqrt(p).
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64

	header
	trees []*DecisionTree
	// prep caches the traversal-optimized form the scoring kernel
	// walks; fitting resets it.
	prep atomic.Pointer[preparedForest]
}

// NewRandomForest returns a forest with n trees and common defaults.
func NewRandomForest(n int) *RandomForest {
	return &RandomForest{NEstimators: n, MaxDepth: 12, MinSamplesLeaf: 1}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "random_forest" }

// Fit implements Classifier: FitWorkers with NumCPU workers. Each tree
// is trained on a bootstrap sample of the rows with sqrt(p) feature
// subsampling per split.
func (f *RandomForest) Fit(X [][]float64, y []int) error { return f.FitWorkers(X, y, 0) }

// FitWorkers fits the forest on up to workers goroutines (0 means
// NumCPU). The feature columns are presorted once and shared by every
// tree; workers claim tree indices from a shared cursor, and a tree's
// bootstrap — one multiplicity per row, not a copied matrix — and
// split seeds derive from its absolute index, so the fitted forest is
// byte-identical at any worker count.
func (f *RandomForest) FitWorkers(X [][]float64, y []int, workers int) error {
	ts, err := newTrainSet(X, y, workers)
	if err != nil {
		return err
	}
	if f.NEstimators <= 0 {
		f.NEstimators = 16
	}
	n, mtry := len(y), f.mtry(len(X))
	trees := make([]*DecisionTree, f.NEstimators)
	parallelMorsels(workers, len(trees), func(ti int) {
		t := &DecisionTree{
			MaxDepth:       f.MaxDepth,
			MinSamplesLeaf: f.MinSamplesLeaf,
			MaxFeatures:    mtry,
			Seed:           f.Seed + int64(ti)*7919,
		}
		w := make([]int32, n)
		r := newRNG(f.Seed + int64(ti)*104729 + 1)
		for i := 0; i < n; i++ {
			w[r.Intn(n)]++
		}
		ts.grow(t, w)
		trees[ti] = t
	})
	f.trees = trees
	f.header = header{classes: ts.classes, nfeat: len(X)}
	f.prep.Store(nil)
	return nil
}

// mtry resolves the per-split feature budget (sqrt(p) by default).
func (f *RandomForest) mtry(nfeat int) int {
	mtry := f.MaxFeatures
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(nfeat)))
		if mtry < 1 {
			mtry = 1
		}
	}
	return mtry
}

// probsInto is the forest's kernel: the average of the trees' leaf
// distributions, accumulated by accumProbs over the prepared form.
func (f *RandomForest) probsInto(X [][]float64, n int, probs []float64) {
	bufp, curp := getFloats(f.nfeat), getInt32s(len(f.trees))
	f.accumProbs(X, n, probs, *bufp, *curp)
	putFloats(bufp)
	putInt32s(curp)
}

// preparedForest is a read-only, traversal-optimized copy of a fitted
// forest, built once per model and cached on the RandomForest (the
// engine's model cache keeps the classifier instance alive across
// chunks, so the preparation cost amortizes over the whole scan).
// Each node's split fields fuse into one 16-byte struct, so a visit
// loads one cache line and pays one bounds check instead of spreading
// the node across four parallel slices, and nodes lay out in
// height-2 van Emde Boas blocks — every internal node shares a
// four-slot (64-byte) block with its two children, so a descent
// crosses into a new cache line only every other level. Leaves
// self-loop with a NaN threshold: NaN <= NaN is false, so a finished
// row keeps selecting its own index. That removes the leaf check from
// the hot loop — every walk runs the tree's full depth with a
// branchless child select — which lets several walks interleave in
// registers. Each root-to-leaf chase is a serial chain of dependent
// loads; interleaved independent chains keep the load units busy
// instead of stalling on one chain's latency. accumProbs, the forest's
// scoring kernel, walks it.
type preparedForest struct {
	trees []preparedTree
	// order lists tree indices sorted by depth, so interleaved walk
	// groups hold trees of similar depth and shallow trees don't
	// self-loop through a deep partner's remaining levels. Walk order
	// is free to differ from tree order: leaves are collected per tree
	// and accumulated by index afterwards.
	order []int32
}

// pnode is one prepared split: compare buf[feat] <= thresh, descend
// left on true, right on false (NaN falls right). The feature and the
// two child indices pack into one word — feat<<48 | left<<24 | right
// — so a node is 16 bytes, four per cache line: unpacking costs a few
// ALU ops, which is far cheaper than the extra cache misses of a
// wider node on a forest whose node arrays overflow L2.
type pnode struct {
	thresh float64
	pack   uint64
}

// packNode encodes the traversal fields; 24-bit child indices cap a
// tree at 16M nodes and the 16-bit feature field a forest at 65 536
// features (newTrainSet and Unmarshal enforce both).
func packNode(feat, left, right int32) uint64 {
	return uint64(feat)<<48 | uint64(left)<<24 | uint64(right)
}

// cmovBarrier is always 1.0, but the compiler must assume otherwise.
// Multiplying a child index by it (exact for indices < 2^24) hides
// from the compiler that the selected index computes the next node's
// load address: branchelim refuses to emit CMOV for values feeding
// load addresses (it prefers a predictable branch there), yet tree
// descent branches are data-dependent coin flips, so the mispredict
// flush every other visit costs far more than the conversion hop.
var cmovBarrier = 1.0

type preparedTree struct {
	depth int
	nodes []pnode
	probs []float64 // flattened node*k leaf distributions
}

// prepared returns the traversal-optimized form, building it on first
// use. Concurrent builders may race benignly (the build is
// deterministic and idempotent); fitting stores a fresh nil pointer.
func (f *RandomForest) prepared() *preparedForest {
	if p := f.prep.Load(); p != nil {
		return p
	}
	k := len(f.classes)
	pf := &preparedForest{trees: make([]preparedTree, len(f.trees))}
	for ti, t := range f.trees {
		pf.trees[ti] = prepareTree(t, k)
	}
	pf.order = make([]int32, len(pf.trees))
	for i := range pf.order {
		pf.order[i] = int32(i)
	}
	sort.SliceStable(pf.order, func(a, b int) bool {
		return pf.trees[pf.order[a]].depth < pf.trees[pf.order[b]].depth
	})
	f.prep.Store(pf)
	return pf
}

// prepareTree builds the blocked, packed traversal form of one fitted
// tree. Internal nodes emit in height-2 van Emde Boas blocks: a node
// occupies slot 4b and its children slots 4b+1 and 4b+2, so every
// parent-to-child step stays inside one 64-byte cache line and a
// descent crosses lines only every other level (node arrays above
// Go's large-object threshold are page-aligned). Grandchildren start
// blocks of their own; leaves that fall on block roots have no
// children to co-locate, so they pack densely at the tail. The
// permutation is invisible to callers — child indices rewrite to the
// new slots, and the walk itself is unchanged.
func prepareTree(t *DecisionTree, k int) preparedTree {
	nn := len(t.nodes)
	if nn == 0 {
		return preparedTree{}
	}
	perm := make([]int32, nn)
	blocks := make([]int32, 0, nn/2+1)
	lone := make([]int32, 0, 4)
	addRoot := func(v int32) {
		if t.nodes[v].left < 0 {
			lone = append(lone, v)
		} else {
			blocks = append(blocks, v)
		}
	}
	addRoot(0)
	for bi := 0; bi < len(blocks); bi++ {
		v := blocks[bi]
		nd := &t.nodes[v]
		perm[v] = int32(bi * 4)
		perm[nd.left] = int32(bi*4 + 1)
		perm[nd.right] = int32(bi*4 + 2)
		if c := &t.nodes[nd.left]; c.left >= 0 {
			addRoot(c.left)
			addRoot(c.right)
		}
		if c := &t.nodes[nd.right]; c.left >= 0 {
			addRoot(c.left)
			addRoot(c.right)
		}
	}
	base := int32(len(blocks) * 4)
	for j, v := range lone {
		perm[v] = base + int32(j)
	}
	total := int(base) + len(lone)
	pt := preparedTree{
		depth: t.Depth(),
		nodes: make([]pnode, total),
		probs: make([]float64, total*k),
	}
	// Prefill every slot as a self-looping terminal; leaves keep it
	// (their probs copy in below) and padding slots are never visited.
	for i := range pt.nodes {
		pt.nodes[i] = pnode{thresh: math.NaN(), pack: packNode(0, int32(i), int32(i))}
	}
	for orig := range t.nodes {
		nd := &t.nodes[orig]
		ni := int(perm[orig])
		if nd.left < 0 {
			copy(pt.probs[ni*k:(ni+1)*k], nd.probs)
		} else {
			pt.nodes[ni] = pnode{thresh: nd.threshold, pack: packNode(nd.feature, perm[nd.left], perm[nd.right])}
		}
	}
	return pt
}

// walk1 descends one prepared tree for one row against the
// L1-resident feature buffer. The child select compiles branch-free;
// NaN features compare false and descend right, exactly as the tree
// kernel's walk does.
func (t *preparedTree) walk1(buf []float64) int32 {
	nodes := t.nodes
	fb := cmovBarrier
	var i int32
	for d := 0; d < t.depth; d++ {
		nd := &nodes[i]
		p := nd.pack
		l := int32(p>>24) & 0xFFFFFF
		next := int32(p) & 0xFFFFFF
		if buf[p>>48] <= nd.thresh {
			next = l
		}
		i = int32(float64(next) * fb)
	}
	return i
}

// accumProbs fills acc (row-major n×k) with the scaled sum of the
// trees' leaf distributions, using the prepared traversal. Per row,
// trees descend four at a time in depth-sorted walk order: each
// root-to-leaf chase is a serial chain of dependent node loads, but
// the four trees' chains are independent, so interleaving keeps
// several loads in flight instead of stalling on one tree's latency,
// and grouping by depth keeps the fixed-trip walks tight. Features
// come from a small L1-resident row buffer; cur collects each tree's
// leaf. Leaf distributions then accumulate in tree index order, so
// every acc cell sees the same addition sequence as the reference
// scorer in predict_reference_test.go.
func (f *RandomForest) accumProbs(X [][]float64, n int, acc []float64, buf []float64, cur []int32) {
	k := len(f.classes)
	pf := f.prepared()
	trees := pf.trees
	order := pf.order
	nt := len(trees)
	inv := 1 / float64(nt)
	fb := cmovBarrier
	for r := 0; r < n; r++ {
		for c := range buf {
			buf[c] = X[c][r]
		}
		tt := 0
		for ; tt+8 <= nt; tt += 8 {
			o0, o1, o2, o3 := order[tt], order[tt+1], order[tt+2], order[tt+3]
			o4, o5, o6, o7 := order[tt+4], order[tt+5], order[tt+6], order[tt+7]
			t0, t1, t2, t3 := trees[o0].nodes, trees[o1].nodes, trees[o2].nodes, trees[o3].nodes
			t4, t5, t6, t7 := trees[o4].nodes, trees[o5].nodes, trees[o6].nodes, trees[o7].nodes
			d := trees[o7].depth // deepest of the group: order is depth-sorted
			var i0, i1, i2, i3, i4, i5, i6, i7 int32
			for ; d > 0; d-- {
				n0, n1, n2, n3 := &t0[i0], &t1[i1], &t2[i2], &t3[i3]
				n4, n5, n6, n7 := &t4[i4], &t5[i5], &t6[i6], &t7[i7]
				p0, p1, p2, p3 := n0.pack, n1.pack, n2.pack, n3.pack
				p4, p5, p6, p7 := n4.pack, n5.pack, n6.pack, n7.pack
				// Pre-computing both children keeps each select a bare
				// value assignment, which the compiler turns into CMOV;
				// an expression in the if-body compiles to a
				// data-dependent branch that mispredicts half the time.
				l0, l1, l2, l3 := int32(p0>>24)&0xFFFFFF, int32(p1>>24)&0xFFFFFF, int32(p2>>24)&0xFFFFFF, int32(p3>>24)&0xFFFFFF
				l4, l5, l6, l7 := int32(p4>>24)&0xFFFFFF, int32(p5>>24)&0xFFFFFF, int32(p6>>24)&0xFFFFFF, int32(p7>>24)&0xFFFFFF
				j0, j1, j2, j3 := int32(p0)&0xFFFFFF, int32(p1)&0xFFFFFF, int32(p2)&0xFFFFFF, int32(p3)&0xFFFFFF
				j4, j5, j6, j7 := int32(p4)&0xFFFFFF, int32(p5)&0xFFFFFF, int32(p6)&0xFFFFFF, int32(p7)&0xFFFFFF
				if buf[p0>>48] <= n0.thresh {
					j0 = l0
				}
				if buf[p1>>48] <= n1.thresh {
					j1 = l1
				}
				if buf[p2>>48] <= n2.thresh {
					j2 = l2
				}
				if buf[p3>>48] <= n3.thresh {
					j3 = l3
				}
				if buf[p4>>48] <= n4.thresh {
					j4 = l4
				}
				if buf[p5>>48] <= n5.thresh {
					j5 = l5
				}
				if buf[p6>>48] <= n6.thresh {
					j6 = l6
				}
				if buf[p7>>48] <= n7.thresh {
					j7 = l7
				}
				i0, i1 = int32(float64(j0)*fb), int32(float64(j1)*fb)
				i2, i3 = int32(float64(j2)*fb), int32(float64(j3)*fb)
				i4, i5 = int32(float64(j4)*fb), int32(float64(j5)*fb)
				i6, i7 = int32(float64(j6)*fb), int32(float64(j7)*fb)
			}
			cur[o0], cur[o1], cur[o2], cur[o3] = i0, i1, i2, i3
			cur[o4], cur[o5], cur[o6], cur[o7] = i4, i5, i6, i7
		}
		for ; tt+4 <= nt; tt += 4 {
			o0, o1, o2, o3 := order[tt], order[tt+1], order[tt+2], order[tt+3]
			t0, t1, t2, t3 := trees[o0].nodes, trees[o1].nodes, trees[o2].nodes, trees[o3].nodes
			d := trees[o3].depth // deepest of the group: order is depth-sorted
			var i0, i1, i2, i3 int32
			for ; d > 0; d-- {
				n0, n1, n2, n3 := &t0[i0], &t1[i1], &t2[i2], &t3[i3]
				p0, p1, p2, p3 := n0.pack, n1.pack, n2.pack, n3.pack
				l0, l1, l2, l3 := int32(p0>>24)&0xFFFFFF, int32(p1>>24)&0xFFFFFF, int32(p2>>24)&0xFFFFFF, int32(p3>>24)&0xFFFFFF
				j0, j1, j2, j3 := int32(p0)&0xFFFFFF, int32(p1)&0xFFFFFF, int32(p2)&0xFFFFFF, int32(p3)&0xFFFFFF
				if buf[p0>>48] <= n0.thresh {
					j0 = l0
				}
				if buf[p1>>48] <= n1.thresh {
					j1 = l1
				}
				if buf[p2>>48] <= n2.thresh {
					j2 = l2
				}
				if buf[p3>>48] <= n3.thresh {
					j3 = l3
				}
				i0, i1 = int32(float64(j0)*fb), int32(float64(j1)*fb)
				i2, i3 = int32(float64(j2)*fb), int32(float64(j3)*fb)
			}
			cur[o0], cur[o1], cur[o2], cur[o3] = i0, i1, i2, i3
		}
		for ; tt < nt; tt++ {
			o := order[tt]
			cur[o] = trees[o].walk1(buf)
		}
		a := acc[r*k : r*k+k]
		for c := range a {
			a[c] = 0
		}
		for t := 0; t < nt; t++ {
			p := trees[t].probs[int(cur[t])*k:]
			for c := range a {
				a[c] += p[c]
			}
		}
		for c := range a {
			a[c] *= inv
		}
	}
}
