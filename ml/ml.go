// Package ml is a from-scratch, stdlib-only machine-learning library
// playing the role scikit-learn plays in the paper: classification
// models with a uniform fit/predict interface, model metrics,
// preprocessing helpers, and versioned binary model serialization (the
// pickle analog) so trained models can be stored in BLOB columns
// inside the database and later deserialized inside prediction UDFs.
//
// Feature matrices are column-major ([][]float64 indexed as
// [feature][row]), matching how a column store hands vectors to UDFs.
//
// Trees and forests train through one exact presorted CART builder
// (tree.go): feature columns are sorted once per fit and shared by all
// trees, a bootstrap is a per-row multiplicity, each tree keeps one
// value-sorted row list per feature, split search is a linear scan and
// a split is a stable partition of every list. Training is
// deterministic — the fitted bytes depend only on the data, the
// hyperparameters and the seed, never on the worker count (see
// treeBuilder for what pins them). NaN features sort last, are never a
// split threshold and go right, as x <= threshold does at prediction.
package ml

import (
	"errors"
	"fmt"
	"sort"
)

// Classifier is the uniform interface of all models in this package.
type Classifier interface {
	// Fit trains the model on column-major features X and integer
	// class labels y (len(y) == len(X[i]) for every feature i).
	Fit(X [][]float64, y []int) error
	// Predict returns the predicted class label for each row.
	Predict(X [][]float64) ([]int, error)
	// PredictProba returns per-row class probabilities, indexed
	// [row][classIndex] following Classes() order.
	PredictProba(X [][]float64) ([][]float64, error)
	// Classes returns the sorted class labels seen during Fit.
	Classes() []int
	// Name returns the algorithm name, e.g. "random_forest".
	Name() string
}

// ErrNotFitted is returned by Predict on an untrained model.
var ErrNotFitted = errors.New("ml: model is not fitted")

// validateX checks a column-major feature matrix for consistent
// column lengths and returns the row count.
func validateX(X [][]float64) (int, error) {
	if len(X) == 0 {
		return 0, fmt.Errorf("ml: empty feature matrix")
	}
	n := len(X[0])
	for i, col := range X {
		if len(col) != n {
			return 0, fmt.Errorf("ml: feature %d has %d rows, feature 0 has %d", i, len(col), n)
		}
	}
	return n, nil
}

func validateXY(X [][]float64, y []int) (int, error) {
	n, err := validateX(X)
	if err != nil {
		return 0, err
	}
	if len(y) != n {
		return 0, fmt.Errorf("ml: %d labels for %d rows", len(y), n)
	}
	if n == 0 {
		return 0, fmt.Errorf("ml: cannot fit on zero rows")
	}
	return n, nil
}

// classIndex builds the sorted unique class list and a label->index map.
func classIndex(y []int) ([]int, map[int]int) {
	seen := make(map[int]bool)
	for _, c := range y {
		seen[c] = true
	}
	classes := make([]int, 0, len(seen))
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	idx := make(map[int]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	return classes, idx
}

// row extracts row r of a column-major matrix into dst (reused buffer).
func row(X [][]float64, r int, dst []float64) []float64 {
	dst = dst[:0]
	for _, col := range X {
		dst = append(dst, col[r])
	}
	return dst
}

// argmax returns the index of the largest value (first on ties).
func argmax(v []float64) int {
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}
