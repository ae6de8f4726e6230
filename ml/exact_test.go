package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// exactData builds a NaN-free dataset whose feature columns cycle
// through the shapes that stress an exact splitter: continuous values,
// a tie-heavy five-level quantisation, a constant, and four adjacent
// floats around 1 (for v = 1+ulp, vNext = 1+2ulp the midpoint rounds
// to vNext itself, so the stored threshold sends vNext's rows left
// although the scan counted them right). Labels follow the features
// loosely, so splits are informative but never clean.
func exactData(r *rng, n, nfeat, nclasses int) ([][]float64, []int) {
	ulp := math.Nextafter(1, 2) - 1
	X := make([][]float64, nfeat)
	for f := range X {
		X[f] = make([]float64, n)
	}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nclasses)
		y[i] = c * 3 // labels need not be 0..k-1
		for f := range X {
			noisy := float64(c) + r.Float64()*3 - 1.5
			switch f % 4 {
			case 0:
				X[f][i] = noisy
			case 1:
				X[f][i] = math.Floor(noisy + 2)
			case 2:
				X[f][i] = 3
			case 3:
				X[f][i] = 1 + float64((c+r.Intn(3))%4)*ulp
			}
		}
	}
	return X, y
}

func mustMarshal(t *testing.T, c Classifier) []byte {
	t.Helper()
	b, err := Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestPresortedMatchesReference checks the presorted builder against
// the independent sort-per-node reference (reference_test.go): over
// seeded random shapes and hyperparameters, trees and forests must
// serialize to exactly the reference's bytes.
func TestPresortedMatchesReference(t *testing.T) {
	sizes := []int{2, 3, 5, 17, 64, 300, 1200, 4000}
	depths := []int{0, 1, 6}
	r := newRNG(2024)
	for ci := 0; ci < 120; ci++ {
		n := sizes[ci%len(sizes)]
		nfeat := 1 + r.Intn(6)
		nclasses := 2 + r.Intn(2)
		minLeaf := []int{1, 5}[r.Intn(2)]
		depth := depths[r.Intn(len(depths))]
		allFeats := r.Intn(2) == 0
		seed := int64(r.Intn(1000))
		X, y := exactData(r, n, nfeat, nclasses)
		name := fmt.Sprintf("case %d (n=%d p=%d k=%d leaf=%d depth=%d all=%v)",
			ci, n, nfeat, nclasses, minLeaf, depth, allFeats)

		newTree := func() *DecisionTree {
			tr := &DecisionTree{MaxDepth: depth, MinSamplesLeaf: minLeaf, Seed: seed}
			if !allFeats {
				tr.MaxFeatures = (nfeat + 1) / 2
			}
			return tr
		}
		got, want := newTree(), newTree()
		if err := got.Fit(X, y); err != nil {
			t.Fatalf("%s: tree fit: %v", name, err)
		}
		refFitTree(want, X, y)
		if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
			t.Fatalf("%s: tree differs from reference (%d vs %d nodes)", name, got.NumNodes(), want.NumNodes())
		}

		newForest := func() *RandomForest {
			f := &RandomForest{NEstimators: 5, MaxDepth: depth, MinSamplesLeaf: minLeaf, Seed: seed}
			if allFeats {
				f.MaxFeatures = nfeat
			}
			return f
		}
		gotF, wantF := newForest(), newForest()
		if err := gotF.FitWorkers(X, y, 1+ci%3); err != nil {
			t.Fatalf("%s: forest fit: %v", name, err)
		}
		refFitForest(wantF, X, y)
		if !bytes.Equal(mustMarshal(t, gotF), mustMarshal(t, wantF)) {
			t.Fatalf("%s: forest differs from reference", name)
		}
	}
}

// goldenForests are two fixed fits whose Marshal SHA-256 was captured
// from the commit before the presorted builder landed (every bootstrap
// there drew every class, so the old per-tree class index agreed).
var goldenForests = []struct {
	forest         *RandomForest
	n, nfeat, k    int
	dataSeed       int64
	sha256, detail string
}{
	{
		forest: &RandomForest{NEstimators: 8, MaxDepth: 10, MinSamplesLeaf: 1, Seed: 7},
		n:      3000, nfeat: 6, k: 3, dataSeed: 11,
		sha256: "e127d0d893a0ab98b6961e2d45c312b0900ace40d476d0aedb8b4dc8c0304f5e",
		detail: "depth 10, sqrt features",
	},
	{
		forest: &RandomForest{NEstimators: 12, MaxDepth: 0, MinSamplesLeaf: 3, MaxFeatures: 3, Seed: 99},
		n:      1500, nfeat: 4, k: 2, dataSeed: 5,
		sha256: "de634629699036501362a6861fa16d7a6afbdc5d9b0b171617ed79fa1747c472",
		detail: "unbounded depth, 3-sample leaves",
	},
}

func TestForestGoldenSHA(t *testing.T) {
	for i, g := range goldenForests {
		X, y := exactData(newRNG(g.dataSeed), g.n, g.nfeat, g.k)
		if err := g.forest.FitWorkers(X, y, 2); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(mustMarshal(t, g.forest))
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("golden forest %d (%s): sha256 %s, want %s", i, g.detail, got, g.sha256)
		}
	}
}

// TestForestWorkerCountIdentity: workers only decide who claims which
// tree index, so any count — including more workers than trees — must
// fit the same bytes.
func TestForestWorkerCountIdentity(t *testing.T) {
	X, y := batchDataset(2000, 4, 13)
	var base []byte
	for _, workers := range []int{1, 2, 3, 8, 32} {
		f := NewRandomForest(8)
		f.Seed = 9
		b := marshalWith(t, f, func() error { return f.FitWorkers(X, y, workers) })
		if base == nil {
			base = b
		} else if !bytes.Equal(base, b) {
			t.Fatalf("workers=%d model differs from workers=1", workers)
		}
	}
}

// TestForestRareClass: one row of a third class among 200, so about a
// third of the bootstraps never draw it. Every tree must still index
// classes as the forest does — labels, probabilities and batch agree,
// nothing panics, and the model survives a serialization round trip.
func TestForestRareClass(t *testing.T) {
	X, y := blobs2(200, 3)
	y[17] = 7
	f := NewRandomForest(16)
	f.Seed = 1
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	check := func(name string, c Classifier) {
		t.Helper()
		labels, err := Predict(c, X)
		if err != nil {
			t.Fatalf("%s predict: %v", name, err)
		}
		probs := probaOf(t, c, X)
		batch := make([]int32, len(y))
		if err := PredictLabelsInto(c, X, batch); err != nil {
			t.Fatalf("%s batch: %v", name, err)
		}
		classes := c.Classes()
		if len(classes) != 3 {
			t.Fatalf("%s: classes %v", name, classes)
		}
		for i := range labels {
			if len(probs[i]) != 3 {
				t.Fatalf("%s row %d: %d probabilities for 3 classes", name, i, len(probs[i]))
			}
			if want := classes[argmax(probs[i])]; labels[i] != want || int(batch[i]) != want {
				t.Fatalf("%s row %d: predict %d, batch %d, argmax proba %d", name, i, labels[i], batch[i], want)
			}
		}
	}
	check("fitted", f)
	blob := mustMarshal(t, f)
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	check("round-tripped", back)
	if !bytes.Equal(blob, mustMarshal(t, back)) {
		t.Fatal("round trip changed the model bytes")
	}
}

// TestTreeNaNContract: NaN training features sort last, are never a
// threshold candidate and route right, as x <= thr does at prediction.
func TestTreeNaNContract(t *testing.T) {
	nan := math.NaN()
	// Feature 0 separates the classes at 7; its NaN row is class 1,
	// which is where "right" leads. A sort whose less is plain < leaves
	// {10 11 12 NaN 1 2 3 4} in place, finds its best "gain" across the
	// NaN, and a NaN midpoint sends every row right: a silent leaf.
	X := [][]float64{{10, 11, 12, nan, 1, 2, 3, 4}, {5, 5, 5, 5, 5, 5, 5, 5}}
	y := []int{1, 1, 1, 1, 0, 0, 0, 0}
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 3 || tr.nodes[0].feature != 0 || tr.nodes[0].threshold != 7 {
		t.Fatalf("want one split on feature 0 at 7, got %+v", tr.nodes)
	}
	pred, err := Predict(tr, X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if pred[i] != y[i] {
			t.Fatalf("row %d: predicted %d, want %d", i, pred[i], y[i])
		}
	}

	// An all-NaN column offers no candidate at all.
	leaf := &DecisionTree{}
	if err := leaf.Fit([][]float64{{nan, nan, nan, nan}}, []int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if leaf.NumNodes() != 1 {
		t.Fatalf("all-NaN feature split into %d nodes", leaf.NumNodes())
	}

	// No internal node of a forest over NaN-bearing data stores a NaN
	// threshold: the packed batch walk reads one as a leaf marker.
	Xn, yn := batchDataset(3000, 5, 29)
	for i := range yn {
		if i%3 == 0 {
			Xn[2][i] = nan
		}
	}
	f := NewRandomForest(8)
	f.Seed = 5
	if err := f.Fit(Xn, yn); err != nil {
		t.Fatal(err)
	}
	for ti, tree := range f.trees {
		for ni, nd := range tree.nodes {
			if nd.left >= 0 && nd.threshold != nd.threshold {
				t.Fatalf("tree %d node %d: internal node with NaN threshold", ti, ni)
			}
		}
	}
}
