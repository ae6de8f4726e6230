package ml

import (
	"math"
	"testing"
	"testing/quick"
)

// blobs2 generates a deterministic 2-class dataset: two Gaussian-ish
// blobs separated along both features.
func blobs2(n int, seed int64) ([][]float64, []int) {
	r := newRNG(seed)
	x0 := make([]float64, n)
	x1 := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := float64(cls) * 4
		x0[i] = cx + (r.Float64()-0.5)*2
		x1[i] = cx + (r.Float64()-0.5)*2
		y[i] = cls
	}
	return [][]float64{x0, x1}, y
}

// xorData is a dataset linear models cannot separate but trees can.
func xorData(n int, seed int64) ([][]float64, []int) {
	r := newRNG(seed)
	x0 := make([]float64, n)
	x1 := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64() > 0.5, r.Float64() > 0.5
		x0[i] = bto(a) + (r.Float64()-0.5)*0.4
		x1[i] = bto(b) + (r.Float64()-0.5)*0.4
		if a != b {
			y[i] = 1
		}
	}
	return [][]float64{x0, x1}, y
}

func bto(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fitAccuracy(t *testing.T, c Classifier, X [][]float64, y []int) float64 {
	t.Helper()
	if err := c.Fit(X, y); err != nil {
		t.Fatalf("%s.Fit: %v", c.Name(), err)
	}
	pred, err := Predict(c, X)
	if err != nil {
		t.Fatalf("%s: Predict: %v", c.Name(), err)
	}
	acc, err := Accuracy(y, pred)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestDecisionTreeSeparable(t *testing.T) {
	X, y := blobs2(400, 1)
	acc := fitAccuracy(t, NewDecisionTree(), X, y)
	if acc < 0.95 {
		t.Fatalf("tree accuracy %.3f on separable data", acc)
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	X, y := xorData(400, 2)
	acc := fitAccuracy(t, NewDecisionTree(), X, y)
	if acc < 0.95 {
		t.Fatalf("tree accuracy %.3f on XOR", acc)
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	X, y := xorData(200, 3)
	tr := &DecisionTree{MaxDepth: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 1 {
		t.Fatalf("depth %d exceeds limit", d)
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	X := [][]float64{{1, 2, 3, 4}}
	y := []int{7, 7, 7, 7}
	tr := NewDecisionTree()
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("pure data should yield a single leaf, got %d nodes", tr.NumNodes())
	}
	pred, err := Predict(tr, [][]float64{{9}})
	if err != nil || pred[0] != 7 {
		t.Fatalf("pred = %v, %v", pred, err)
	}
}

func TestRandomForestAccuracyAndDeterminism(t *testing.T) {
	X, y := xorData(600, 4)
	f1 := NewRandomForest(16)
	f1.Seed = 42
	acc := fitAccuracy(t, f1, X, y)
	if acc < 0.95 {
		t.Fatalf("forest accuracy %.3f on XOR", acc)
	}
	f2 := NewRandomForest(16)
	f2.Seed = 42
	if err := f2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p1, _ := Predict(f1, X)
	p2, _ := Predict(f2, X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed, different predictions at row %d", i)
		}
	}
}

func TestRandomForestProbaSumsToOne(t *testing.T) {
	X, y := blobs2(200, 5)
	f := NewRandomForest(8)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, p := range probaOf(t, f, X) {
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d probabilities sum to %v", i, sum)
		}
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	X, y := blobs2(400, 6)
	acc := fitAccuracy(t, NewLogisticRegression(), X, y)
	if acc < 0.95 {
		t.Fatalf("logreg accuracy %.3f on separable data", acc)
	}
}

func TestLogisticRegressionMulticlass(t *testing.T) {
	// Three blobs at triangle corners so each class is linearly
	// separable from the rest (one-vs-rest needs that).
	r := newRNG(7)
	n := 600
	x0 := make([]float64, n)
	x1 := make([]float64, n)
	y := make([]int, n)
	centers := [3][2]float64{{0, 0}, {6, 0}, {0, 6}}
	for i := 0; i < n; i++ {
		cls := i % 3
		x0[i] = centers[cls][0] + (r.Float64()-0.5)*2
		x1[i] = centers[cls][1] + (r.Float64()-0.5)*2
		y[i] = cls * 10 // non-contiguous labels
	}
	m := NewLogisticRegression()
	acc := fitAccuracy(t, m, [][]float64{x0, x1}, y)
	if acc < 0.9 {
		t.Fatalf("multiclass accuracy %.3f", acc)
	}
	if got := m.Classes(); len(got) != 3 || got[0] != 0 || got[2] != 20 {
		t.Fatalf("classes = %v", got)
	}
}

func TestGaussianNB(t *testing.T) {
	X, y := blobs2(400, 8)
	acc := fitAccuracy(t, NewGaussianNB(), X, y)
	if acc < 0.95 {
		t.Fatalf("nb accuracy %.3f", acc)
	}
}

func TestKNN(t *testing.T) {
	X, y := blobs2(300, 9)
	acc := fitAccuracy(t, NewKNN(5), X, y)
	if acc < 0.95 {
		t.Fatalf("knn accuracy %.3f", acc)
	}
}

func TestNotFittedErrors(t *testing.T) {
	X := [][]float64{{1, 2}}
	for _, c := range []Classifier{NewDecisionTree(), NewRandomForest(2), NewLogisticRegression(), NewGaussianNB(), NewKNN(3)} {
		if _, err := Predict(c, X); err == nil {
			t.Errorf("%s: predict before fit should fail", c.Name())
		}
	}
}

func TestFitValidation(t *testing.T) {
	if err := NewDecisionTree().Fit([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if err := NewDecisionTree().Fit([][]float64{{1, 2}}, []int{0}); err == nil {
		t.Error("label length mismatch should fail")
	}
	if err := NewDecisionTree().Fit(nil, nil); err == nil {
		t.Error("empty matrix should fail")
	}
	tr := NewDecisionTree()
	if err := tr.Fit([][]float64{{1, 2, 3, 4}}, []int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Predict(tr, [][]float64{{1}, {2}}); err == nil {
		t.Error("feature count mismatch at predict should fail")
	}
}

func TestSerializeRoundTripAllModels(t *testing.T) {
	X, y := blobs2(200, 10)
	models := []Classifier{
		NewDecisionTree(),
		NewRandomForest(4),
		NewLogisticRegression(),
		NewGaussianNB(),
		NewKNN(3),
	}
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		blob, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s marshal: %v", m.Name(), err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s unmarshal: %v", m.Name(), err)
		}
		if back.Name() != m.Name() {
			t.Fatalf("name %q != %q", back.Name(), m.Name())
		}
		p1, err := Predict(m, X)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Predict(back, X)
		if err != nil {
			t.Fatalf("%s deserialized predict: %v", m.Name(), err)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: prediction %d differs after round trip", m.Name(), i)
			}
		}
	}
}

func TestMetrics(t *testing.T) {
	truth := []int{0, 0, 1, 1, 1}
	pred := []int{0, 1, 1, 1, 0}
	acc, err := Accuracy(truth, pred)
	if err != nil || acc != 0.6 {
		t.Fatalf("accuracy = %v, %v", acc, err)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestTrainTestSplit(t *testing.T) {
	X, y := blobs2(100, 12)
	trX, trY, teX, teY, err := TrainTestSplit(X, y, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(teY) != 25 || len(trY) != 75 {
		t.Fatalf("split sizes %d/%d", len(trY), len(teY))
	}
	if len(trX[0]) != 75 || len(teX[0]) != 25 {
		t.Fatal("feature split sizes")
	}
	// Deterministic given the seed.
	_, trY2, _, _, err := TrainTestSplit(X, y, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trY {
		if trY[i] != trY2[i] {
			t.Fatal("split not deterministic")
		}
	}
	if _, _, _, _, err := TrainTestSplit(X, y, 1.5, 1); err == nil {
		t.Error("bad fraction should fail")
	}
}

func TestKFoldPartition(t *testing.T) {
	folds, err := KFold(10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, f := range folds {
		for _, i := range f[1] {
			seen[i]++
		}
		if len(f[0])+len(f[1]) != 10 {
			t.Fatal("fold sizes")
		}
	}
	if len(seen) != 10 {
		t.Fatalf("test folds cover %d rows", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d appears in %d test folds", i, c)
		}
	}
}

func TestCrossValidate(t *testing.T) {
	X, y := blobs2(150, 13)
	scores, err := CrossValidate(func() Classifier { return NewGaussianNB() }, X, y, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %v", scores)
	}
	for _, s := range scores {
		if s < 0.9 {
			t.Fatalf("cv scores = %v", scores)
		}
	}
}

// Property: forest prediction matches serialize/deserialize prediction
// for arbitrary small datasets.
func TestQuickSerializeForest(t *testing.T) {
	f := func(seed int64) bool {
		X, y := blobs2(60, seed)
		m := NewRandomForest(3)
		m.Seed = seed
		if err := m.Fit(X, y); err != nil {
			return false
		}
		blob, err := Marshal(m)
		if err != nil {
			return false
		}
		back, err := Unmarshal(blob)
		if err != nil {
			return false
		}
		p1, _ := Predict(m, X)
		p2, _ := Predict(back, X)
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: tree prediction probabilities are valid distributions.
func TestQuickTreeProbsValid(t *testing.T) {
	f := func(seed int64) bool {
		X, y := xorData(80, seed)
		m := NewDecisionTree()
		if err := m.Fit(X, y); err != nil {
			return false
		}
		for _, p := range probaOf(t, m, X) {
			sum := 0.0
			for _, v := range p {
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(5), newRNG(5)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("rng not deterministic")
		}
	}
	p := newRNG(9).Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatal("perm not a permutation")
	}
}
