package ml

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// blobOf marshals m through the real writer, whatever its fields hold,
// so a test can hand-build a model Fit never would.
func blobOf(t testing.TB, m Classifier) []byte {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// blobHead starts a blob of the given kind.
func blobHead(kind uint8) *writer {
	w := &writer{}
	w.bytes(modelMagic[:])
	w.u16(serializeVersion)
	w.u8(kind)
	return w
}

func leaf(probs ...float64) treeNode { return treeNode{left: -1, right: -1, probs: probs} }

// craftedTree is a tree with two classes over one feature.
func craftedTree(nodes ...treeNode) *DecisionTree {
	return &DecisionTree{header: header{classes: []int{0, 1}, nfeat: 1}, nodes: nodes}
}

// unmarshalBounded decodes blob and fails the test if decoding
// allocated more than 32 times the blob plus 64 KiB.
func unmarshalBounded(t *testing.T, blob []byte) (Classifier, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Unmarshal(blob)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(32*len(blob)+64<<10) {
		t.Fatalf("decoding %d bytes allocated %d", len(blob), grew)
	}
	return c, err
}

// TestUnmarshalRejectsCraftedBlobs: every blob below once panicked,
// hung or exhausted memory in Unmarshal or in the scorer behind it.
// Each must now be an error, with bounded allocation.
func TestUnmarshalRejectsCraftedBlobs(t *testing.T) {
	selfLoop := craftedTree(treeNode{left: 0, right: 0})
	nb := blobHead(kindGaussianNB)
	nb.f64(0)
	nb.ints([]int{0, 1})
	nb.i64(1)       // features
	nb.i64(1 << 27) // priors declared, none present
	nodes := blobHead(kindDecisionTree)
	for range 4 {
		nodes.i64(0) // hyperparameters
	}
	nodes.ints([]int{0, 1})
	nodes.i64(1)
	nodes.i64(1 << 27) // nodes declared, none present
	fitted := blobOf(t, craftedTree(treeNode{left: 1, right: 2}, leaf(1, 0), leaf(0, 1)))
	cases := []struct {
		name string
		blob []byte
	}{
		{"root whose children are itself", blobOf(t, selfLoop)},
		{"forest holding that tree", blobOf(t, &RandomForest{header: selfLoop.header, trees: []*DecisionTree{selfLoop}})},
		{"empty leaf distribution", blobOf(t, craftedTree(leaf()))},
		{"feature 5 of 1", blobOf(t, craftedTree(treeNode{feature: 5, left: 1, right: 2}, leaf(1, 0), leaf(0, 1)))},
		{"shared child", blobOf(t, craftedTree(treeNode{left: 1, right: 1}, leaf(1, 0)))},
		{"unreachable node", blobOf(t, craftedTree(leaf(1, 0), leaf(0, 1)))},
		{"classes not ascending", blobOf(t, &DecisionTree{header: header{classes: []int{1, 0}, nfeat: 1}, nodes: []treeNode{leaf(1, 0)}})},
		{"forest tree of another shape", blobOf(t, &RandomForest{header: header{classes: []int{0, 1, 2}, nfeat: 1}, trees: []*DecisionTree{craftedTree(leaf(1, 0))}})},
		{"knn with k = -3", blobOf(t, &KNN{K: -3, header: header{classes: []int{0}, nfeat: 1}, trainX: [][]float64{{1}}, trainY: []int{0}})},
		{"knn label past the classes", blobOf(t, &KNN{K: 1, header: header{classes: []int{0}, nfeat: 1}, trainX: [][]float64{{1}}, trainY: []int{1}})},
		{"logreg weights short of the features", blobOf(t, &LogisticRegression{header: header{classes: []int{0, 1}, nfeat: 2}, weights: [][]float64{{1, 2}, {1, 2}}})},
		{"naive bayes declaring 2^27 priors", nb.buf},
		{"tree declaring 2^27 nodes", nodes.buf},
		{"trailing bytes", append(fitted, 0)},
		{"truncated", fitted[:len(fitted)-3]},
	}
	if len(nb.buf) != 55 {
		t.Fatalf("naive Bayes blob is %d bytes, want 55", len(nb.buf))
	}
	if _, err := Unmarshal(fitted); err != nil {
		t.Fatalf("the well-formed crafted tree is rejected: %v", err)
	}
	for _, c := range cases {
		if m, err := unmarshalBounded(t, c.blob); err == nil {
			t.Errorf("%s: decoded as a %s", c.name, m.Name())
		}
	}
}

// TestUnmarshalCorruption covers bad magic and truncation of a fitted
// tree.
func TestUnmarshalCorruption(t *testing.T) {
	X, y := blobs2(50, 11)
	m := NewDecisionTree()
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	blob := blobOf(t, m)
	if _, err := Unmarshal(blob[:5]); err == nil {
		t.Error("truncated blob should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Unmarshal(blob[:len(blob)-4]); err == nil {
		t.Error("truncated tail should fail")
	}
}

// FuzzUnmarshal: any input decodes to an error or to a model that
// re-marshals to the same bytes and scores a small NaN-bearing X
// through both Into functions — never a panic, a hang or an
// allocation beyond 32 times the input plus 64 KiB.
func FuzzUnmarshal(f *testing.F) {
	X, y := batchDataset(60, 3, 5)
	seeds := [][]byte{blobOf(f, NewDecisionTree())}
	for _, m := range []Classifier{NewDecisionTree(), NewRandomForest(3), NewLogisticRegression(), NewGaussianNB(), NewKNN(3)} {
		if err := m.Fit(X, y); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blobOf(f, m))
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-1])
		for _, at := range []int{7, 40, 60, len(s) / 2, len(s) - 9} {
			flipped := append([]byte(nil), s...)
			flipped[at] ^= 0x41
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := unmarshalBounded(t, blob)
		if err != nil {
			return
		}
		again, err := Marshal(c)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("%s: re-marshals to different bytes (%v)", c.Name(), err)
		}
		nfeat := c.shape().nfeat
		if nfeat == 0 {
			if _, err := Predict(c, [][]float64{{0}}); err != ErrNotFitted {
				t.Fatalf("unfitted %s scored: %v", c.Name(), err)
			}
			return
		}
		Xs := make([][]float64, nfeat)
		for f := range Xs {
			Xs[f] = []float64{float64(f), math.NaN(), -1e300}
		}
		if err := PredictLabelsInto(c, Xs, make([]int32, 3)); err != nil {
			t.Fatalf("%s: labels: %v", c.Name(), err)
		}
		if err := PredictConfidenceInto(c, Xs, make([]float64, 3)); err != nil {
			t.Fatalf("%s: confidence: %v", c.Name(), err)
		}
	})
}
