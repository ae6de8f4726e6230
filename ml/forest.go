package ml

import (
	"fmt"
	"math"
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
	// Workers bounds fitting parallelism; 0 = NumCPU.
	Workers int

	trees   []*DecisionTree
	classes []int
	nfeat   int
	// prep caches the traversal-optimized form used by the batch
	// prediction path; fitting resets it.
	prep atomic.Pointer[preparedForest]
}

// NewRandomForest returns a forest with n trees and common defaults.
func NewRandomForest(n int) *RandomForest {
	return &RandomForest{NEstimators: n, MaxDepth: 12, MinSamplesLeaf: 1}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "random_forest" }

// Classes implements Classifier.
func (f *RandomForest) Classes() []int { return f.classes }

// NumTrees returns the number of fitted trees.
func (f *RandomForest) NumTrees() int { return len(f.trees) }

// Fit implements Classifier. Each tree is trained on a bootstrap
// sample of the rows with sqrt(p) feature subsampling per split.
func (f *RandomForest) Fit(X [][]float64, y []int) error {
	return f.FitWorkers(X, y, f.Workers)
}

// FitWorkers is Fit with an explicit worker count. The feature columns
// are presorted once and shared by every tree; workers claim tree
// indices from a shared cursor, and a tree's bootstrap — one
// multiplicity per row, not a copied matrix — and split seeds derive
// from its absolute index, so the fitted forest is byte-identical at
// any worker count.
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
	f.classes = ts.classes
	f.nfeat = len(X)
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

// PredictProba implements Classifier: the average of the trees' leaf
// distributions.
func (f *RandomForest) PredictProba(X [][]float64) ([][]float64, error) {
	if len(f.trees) == 0 {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != f.nfeat {
		return nil, fmt.Errorf("ml: forest fitted on %d features, got %d", f.nfeat, len(X))
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, len(f.classes))
	}
	buf := make([]float64, 0, f.nfeat)
	for r := 0; r < n; r++ {
		buf = row(X, r, buf)
		acc := out[r]
		for _, t := range f.trees {
			p := t.predictRowProbs(buf)
			for c := range acc {
				acc[c] += p[c]
			}
		}
		inv := 1 / float64(len(f.trees))
		for c := range acc {
			acc[c] *= inv
		}
	}
	return out, nil
}

// Predict implements Classifier.
func (f *RandomForest) Predict(X [][]float64) ([]int, error) {
	probs, err := f.PredictProba(X)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(probs))
	for i, p := range probs {
		out[i] = f.classes[argmax(p)]
	}
	return out, nil
}
