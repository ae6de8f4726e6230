// Package ml is a from-scratch, stdlib-only machine-learning library
// playing the role scikit-learn plays in the paper: classification
// models with a uniform fit/predict interface, accuracy and
// cross-validation helpers, and versioned binary model serialization
// (the pickle analog) so trained models can be stored in BLOB columns
// inside the database and later deserialized inside prediction UDFs.
//
// Feature matrices are column-major ([][]float64 indexed as
// [feature][row]), matching how a column store hands vectors to UDFs.
// There are no preprocessing helpers: features arrive as the query
// computed them, NaN included.
//
// Every model has one fit (FitWorkers; Fit is FitWorkers with 0, i.e.
// NumCPU) and one scoring kernel, probsInto, which fills a row-major
// n×k class-probability buffer from pooled scratch. Predict,
// PredictLabelsInto and PredictConfidenceInto (predict.go) are the only
// callers of the kernels, and they check fittedness, feature count and
// output length in one place. Unmarshal rejects any blob Marshal could
// not have produced, so a stored model cannot crash the scorer.
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

// Classifier is the uniform interface of the package's five models. It
// is sealed: scoring goes through the unexported kernel, so only this
// package's models implement it.
type Classifier interface {
	// Fit trains the model on column-major features X and integer
	// class labels y (len(y) == len(X[i]) for every feature i).
	Fit(X [][]float64, y []int) error
	// Classes returns the sorted class labels seen during Fit.
	Classes() []int
	// Name returns the algorithm name, e.g. "random_forest".
	Name() string
	// probsInto is the model's scoring kernel: it writes the class
	// probabilities of rows [0, n) of X into probs (row-major n×k, k =
	// len(Classes()), columns in Classes() order). The caller has
	// checked X against shape().
	probsInto(X [][]float64, n int, probs []float64)
	// shape returns the fitted header the caller checks X against.
	shape() *header
}

// header is the fitted shape every model shares: the sorted class
// labels (empty until fitted) and the feature count.
type header struct {
	classes []int
	nfeat   int
}

// Classes implements Classifier.
func (h *header) Classes() []int { return h.classes }

func (h *header) shape() *header { return h }

// ErrNotFitted is returned when an untrained model is scored or
// marshaled.
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
