package ml

import (
	"bytes"
	"math"
	"testing"
)

// batchDataset builds a deterministic dataset with informative
// features, a few NaN cells, and 3 classes.
func batchDataset(n, nfeat int, seed int64) ([][]float64, []int) {
	r := newRNG(seed)
	X := make([][]float64, nfeat)
	for f := range X {
		X[f] = make([]float64, n)
	}
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(3)
		y[i] = c
		for f := 0; f < nfeat; f++ {
			X[f][i] = float64(c) + r.Float64()*2 - 1
		}
		if i%97 == 0 {
			X[0][i] = math.NaN()
		}
	}
	return X, y
}

// fittedModels trains one of each batch-capable classifier.
func fittedModels(t *testing.T, X [][]float64, y []int) []Classifier {
	t.Helper()
	tree := NewDecisionTree()
	tree.MaxDepth = 6
	if err := tree.Fit(X, y); err != nil {
		t.Fatalf("tree fit: %v", err)
	}
	forest := NewRandomForest(9)
	forest.Seed = 42
	if err := forest.Fit(X, y); err != nil {
		t.Fatalf("forest fit: %v", err)
	}
	nb := NewGaussianNB()
	if err := nb.Fit(X, y); err != nil {
		t.Fatalf("nb fit: %v", err)
	}
	lr := NewLogisticRegression()
	lr.Iterations = 40
	if err := lr.Fit(X, y); err != nil {
		t.Fatalf("logreg fit: %v", err)
	}
	return []Classifier{tree, forest, nb, lr}
}

// TestBatchPredictMatchesRowPath asserts the vectorized Into paths are
// bit-identical to the row-at-a-time Classifier methods, including on
// NaN-bearing features and across chunked evaluation.
func TestBatchPredictMatchesRowPath(t *testing.T) {
	X, y := batchDataset(1500, 5, 7)
	for _, clf := range fittedModels(t, X, y) {
		bp, ok := clf.(BatchPredictor)
		if !ok {
			t.Fatalf("%s: no batch path", clf.Name())
		}
		wantLabels, err := clf.Predict(X)
		if err != nil {
			t.Fatalf("%s predict: %v", clf.Name(), err)
		}
		wantProbs, err := clf.PredictProba(X)
		if err != nil {
			t.Fatalf("%s proba: %v", clf.Name(), err)
		}
		// Batch over uneven chunks: per-row arithmetic must not depend
		// on chunk boundaries.
		n := len(y)
		labels := make([]int32, n)
		conf := make([]float64, n)
		for lo := 0; lo < n; {
			hi := lo + 700
			if hi > n {
				hi = n
			}
			sub := make([][]float64, len(X))
			for f := range X {
				sub[f] = X[f][lo:hi]
			}
			if err := bp.PredictLabelsInto(sub, labels[lo:hi]); err != nil {
				t.Fatalf("%s labels into: %v", clf.Name(), err)
			}
			if err := bp.PredictConfidenceInto(sub, conf[lo:hi]); err != nil {
				t.Fatalf("%s conf into: %v", clf.Name(), err)
			}
			lo = hi
		}
		for i := range wantLabels {
			if int(labels[i]) != wantLabels[i] {
				t.Fatalf("%s: row %d label %d != %d", clf.Name(), i, labels[i], wantLabels[i])
			}
			if want := maxProb(wantProbs[i]); math.Float64bits(conf[i]) != math.Float64bits(want) {
				t.Fatalf("%s: row %d confidence %v != %v", clf.Name(), i, conf[i], want)
			}
		}
	}
}

// TestBatchPredictShapeErrors asserts Into paths validate inputs.
func TestBatchPredictShapeErrors(t *testing.T) {
	X, y := batchDataset(200, 4, 3)
	tree := NewDecisionTree()
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := tree.PredictLabelsInto(X, make([]int32, 10)); err == nil {
		t.Fatal("expected output-length mismatch error")
	}
	if err := tree.PredictLabelsInto(X[:2], make([]int32, 200)); err == nil {
		t.Fatal("expected feature-count mismatch error")
	}
	var unfitted DecisionTree
	if err := unfitted.PredictLabelsInto(X, make([]int32, 200)); err != ErrNotFitted {
		t.Fatalf("expected ErrNotFitted, got %v", err)
	}
}

// TestGenericBatchFallback covers the non-BatchPredictor path (KNN).
func TestGenericBatchFallback(t *testing.T) {
	X, y := batchDataset(300, 4, 5)
	knn := NewKNN(3)
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want, err := knn.Predict(X)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, len(y))
	if err := PredictLabelsInto(knn, X, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("row %d: %d != %d", i, got[i], want[i])
		}
	}
	conf := make([]float64, len(y))
	if err := PredictConfidenceInto(knn, X, conf); err != nil {
		t.Fatal(err)
	}
}

// marshalWith fits via fit() and returns the serialized model bytes.
func marshalWith(t *testing.T, clf Classifier, fit func() error) []byte {
	t.Helper()
	if err := fit(); err != nil {
		t.Fatalf("fit: %v", err)
	}
	b, err := Marshal(clf)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestParallelFitDeterminism asserts every parallel trainer produces
// byte-identical models at workers 1, 2, and 8 — on NaN-bearing data.
func TestParallelFitDeterminism(t *testing.T) {
	X, y := batchDataset(5000, 5, 11)
	var base []byte
	for _, workers := range []int{1, 2, 8} {
		f := NewRandomForest(10)
		f.Seed = 3
		b := marshalWith(t, f, func() error { return f.FitWorkers(X, y, workers) })
		if base == nil {
			base = b
		} else if !bytes.Equal(base, b) {
			t.Fatalf("forest: workers=%d model differs from workers=1", workers)
		}
	}
	base = nil
	for _, workers := range []int{1, 2, 8} {
		m := NewGaussianNB()
		b := marshalWith(t, m, func() error { return m.FitParallel(X, y, workers) })
		if base == nil {
			base = b
		} else if !bytes.Equal(base, b) {
			t.Fatalf("nb: workers=%d model differs from workers=1", workers)
		}
	}
	base = nil
	for _, workers := range []int{1, 2, 8} {
		m := NewLogisticRegression()
		m.Iterations = 30
		b := marshalWith(t, m, func() error { return m.FitParallel(X, y, workers) })
		if base == nil {
			base = b
		} else if !bytes.Equal(base, b) {
			t.Fatalf("logreg: workers=%d model differs from workers=1", workers)
		}
	}
}

// TestNBParallelCloseToSerial sanity-checks that sufficient-statistics
// training matches the two-pass serial fit to numerical tolerance.
func TestNBParallelCloseToSerial(t *testing.T) {
	X, y := batchDataset(3000, 4, 17)
	// Strip NaNs: serial and E[x²] variance differ in NaN propagation
	// is not the point here — parameter closeness on clean data is.
	for f := range X {
		for i, v := range X[f] {
			if math.IsNaN(v) {
				X[f][i] = 0
			}
		}
	}
	serial := NewGaussianNB()
	if err := serial.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	par := NewGaussianNB()
	if err := par.FitParallel(X, y, 4); err != nil {
		t.Fatal(err)
	}
	for c := range serial.means {
		for f := range serial.means[c] {
			if d := math.Abs(serial.means[c][f] - par.means[c][f]); d > 1e-9 {
				t.Fatalf("mean[%d][%d] differs by %v", c, f, d)
			}
			if d := math.Abs(serial.vars[c][f] - par.vars[c][f]); d > 1e-6 {
				t.Fatalf("var[%d][%d] differs by %v", c, f, d)
			}
		}
	}
}

// TestEvalStatsMerge asserts merged per-range accumulators reproduce
// the single-pass metrics exactly.
func TestEvalStatsMerge(t *testing.T) {
	r := newRNG(23)
	n := 1000
	truth := make([]int, n)
	pred := make([]int, n)
	for i := range truth {
		truth[i] = r.Intn(3)
		pred[i] = r.Intn(3)
	}
	whole := NewEvalStats()
	for i := range truth {
		whole.Observe(truth[i], pred[i])
	}
	merged := NewEvalStats()
	for lo := 0; lo < n; lo += 333 {
		hi := lo + 333
		if hi > n {
			hi = n
		}
		part := NewEvalStats()
		for i := lo; i < hi; i++ {
			part.Observe(truth[i], pred[i])
		}
		merged.Merge(part)
	}
	if whole.Accuracy() != merged.Accuracy() || whole.Total() != merged.Total() {
		t.Fatal("merged accuracy differs from single pass")
	}
	wantAcc, err := Accuracy(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Accuracy() != wantAcc {
		t.Fatalf("accuracy %v != %v", merged.Accuracy(), wantAcc)
	}
	wantM, wantClasses, err := ConfusionMatrix(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gotClasses := merged.Confusion()
	if len(gotClasses) != len(wantClasses) {
		t.Fatal("class sets differ")
	}
	for i := range wantM {
		for j := range wantM[i] {
			if gotM[i][j] != wantM[i][j] {
				t.Fatalf("confusion[%d][%d] %d != %d", i, j, gotM[i][j], wantM[i][j])
			}
		}
	}
}
