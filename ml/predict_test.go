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

// fittedModels trains one of each classifier. Naive Bayes and
// logistic regression fit on X with its NaNs zeroed: a NaN feature
// makes every mean or weight NaN, and scores that are all NaN would
// compare equal whatever the kernel computed.
func fittedModels(t *testing.T, X [][]float64, y []int) []Classifier {
	t.Helper()
	tree := NewDecisionTree()
	tree.MaxDepth = 6
	forest := NewRandomForest(9)
	forest.Seed = 42
	lr := NewLogisticRegression()
	lr.Iterations = 40
	models := []Classifier{tree, forest, NewGaussianNB(), lr, NewKNN(5)}
	for _, m := range models {
		fitX := X
		switch m.(type) {
		case *GaussianNB, *LogisticRegression:
			fitX = withoutNaN(X)
		}
		if err := m.Fit(fitX, y); err != nil {
			t.Fatalf("%s fit: %v", m.Name(), err)
		}
	}
	return models
}

// withoutNaN returns a copy of X with every NaN replaced by 0.
func withoutNaN(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for f, col := range X {
		out[f] = make([]float64, len(col))
		for i, v := range col {
			if !math.IsNaN(v) {
				out[f][i] = v
			}
		}
	}
	return out
}

// TestBatchPredictShapeErrors asserts scoring validates its inputs.
func TestBatchPredictShapeErrors(t *testing.T) {
	X, y := batchDataset(200, 4, 3)
	tree := NewDecisionTree()
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := PredictLabelsInto(tree, X, make([]int32, 10)); err == nil {
		t.Fatal("expected output-length mismatch error")
	}
	if err := PredictConfidenceInto(tree, X[:2], make([]float64, 200)); err == nil {
		t.Fatal("expected feature-count mismatch error")
	}
	var unfitted DecisionTree
	if err := PredictLabelsInto(&unfitted, X, make([]int32, 200)); err != ErrNotFitted {
		t.Fatalf("expected ErrNotFitted, got %v", err)
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

// TestParallelFitDeterminism asserts every trainer with a worker count
// produces byte-identical models at workers 1, 2, and 8 — on
// NaN-bearing data.
func TestParallelFitDeterminism(t *testing.T) {
	X, y := batchDataset(5000, 5, 11)
	trainers := []struct {
		name string
		fit  func(workers int) []byte
	}{
		{"tree", func(workers int) []byte {
			m := NewDecisionTree()
			return marshalWith(t, m, func() error { return m.FitWorkers(X, y, workers) })
		}},
		{"forest", func(workers int) []byte {
			f := NewRandomForest(10)
			f.Seed = 3
			return marshalWith(t, f, func() error { return f.FitWorkers(X, y, workers) })
		}},
		{"nb", func(workers int) []byte {
			m := NewGaussianNB()
			return marshalWith(t, m, func() error { return m.FitWorkers(X, y, workers) })
		}},
		{"logreg", func(workers int) []byte {
			m := NewLogisticRegression()
			m.Iterations = 30
			return marshalWith(t, m, func() error { return m.FitWorkers(X, y, workers) })
		}},
	}
	for _, tr := range trainers {
		base := tr.fit(1)
		for _, workers := range []int{2, 8} {
			if !bytes.Equal(base, tr.fit(workers)) {
				t.Fatalf("%s: workers=%d model differs from workers=1", tr.name, workers)
			}
		}
	}
}
