package vexdb

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"vexdb/internal/core"
	"vexdb/internal/vector"
	"vexdb/ml"
)

// registerMLFunctions installs the machine-learning UDF suite, the Go
// analog of the paper's Listing 1 (training) and Listing 2
// (classification):
//
//	train_rf(rel, n_estimators, max_depth, seed) -> (model, algo, ...)
//	train_tree(rel, max_depth)                   -> (model, algo, ...)
//	train_logreg(rel, iterations)                -> (model, algo, ...)
//	train_nb(rel)                                -> (model, algo, ...)
//	predict(model, f0, f1, ...)            -> INTEGER
//	predict_confidence(model, f0, f1, ...) -> DOUBLE
//	weighted_label(id, w0, w1, seed)       -> INTEGER
//
// Training relations use the convention of the paper's train(data,
// classes) UDF generalized to many features: every column except the
// last is a numeric feature, the last column is the integer class
// label. The trainers are blocking table UDFs that fit under the
// query's worker count (ml's FitWorkers: per-tree work for the forest,
// presorted columns for the tree, per-morsel sufficient statistics for
// naive Bayes, per-morsel gradient partials for logistic regression)
// and merge deterministically, so trained models are byte-identical at
// any worker count.
//
// Every predict variant goes through the per-database model cache —
// the paper's §5.1 future work ("the database system could be
// extended to directly store snapshots of the in-memory
// representation of the models to avoid this (de)serialization
// overhead") is the default, not an opt-in: a pointer-identity fast
// path plus a SHA-256-verified digest map hand each chunk the already
// deserialized classifier, and scoring runs through ml's per-chunk
// PredictLabelsInto/PredictConfidenceInto (no per-row boxing). A model
// BLOB ml.Unmarshal rejects is a query error.
func registerMLFunctions(db *DB) {
	cache := newModelCache()
	db.modelCache = cache
	mustRegisterScalar := func(f *ScalarFunc) {
		if err := db.RegisterScalar(f); err != nil {
			panic(err)
		}
	}

	// trainer registers one training table UDF: maxParams scalar
	// parameters follow the relation, and fit builds and fits the model
	// from them under the query's worker count.
	trainer := func(name string, maxParams int, fit func(X [][]float64, y []int, args []TableArg, workers int) (ml.Classifier, error)) {
		f := &TableFunc{
			Name: name,
			Columns: []ColumnDecl{
				{Name: "model", Type: Blob},
				{Name: "algo", Type: String},
				{Name: "n_features", Type: Int64},
				{Name: "trained_rows", Type: Int64},
			},
			Fn: func(args []TableArg, workers int) (*Table, error) {
				X, y, err := trainingData(name, args, maxParams)
				if err != nil {
					return nil, err
				}
				clf, err := fit(X, y, args, workers)
				if err != nil {
					return nil, err
				}
				blob, err := ml.Marshal(clf)
				if err != nil {
					return nil, err
				}
				return vector.NewTable(
					[]string{"model", "algo", "n_features", "trained_rows"},
					[]*Vector{
						vector.FromBlobs([][]byte{blob}),
						vector.FromStrings([]string{clf.Name()}),
						vector.FromInt64s([]int64{int64(len(X))}),
						vector.FromInt64s([]int64{int64(len(y))}),
					})
			},
		}
		if err := db.RegisterTable(f); err != nil {
			panic(err)
		}
	}
	trainer("train_rf", 3, func(X [][]float64, y []int, args []TableArg, workers int) (ml.Classifier, error) {
		f := ml.NewRandomForest(int(scalarInt(args, 1, 16)))
		f.MaxDepth = int(scalarInt(args, 2, 12))
		f.Seed = scalarInt(args, 3, 1)
		return f, f.FitWorkers(X, y, workers)
	})
	trainer("train_tree", 1, func(X [][]float64, y []int, args []TableArg, workers int) (ml.Classifier, error) {
		t := ml.NewDecisionTree()
		t.MaxDepth = int(scalarInt(args, 1, 12))
		return t, t.FitWorkers(X, y, workers)
	})
	trainer("train_logreg", 1, func(X [][]float64, y []int, args []TableArg, workers int) (ml.Classifier, error) {
		m := ml.NewLogisticRegression()
		m.Iterations = int(scalarInt(args, 1, 200))
		return m, m.FitWorkers(X, y, workers)
	})
	trainer("train_nb", 0, func(X [][]float64, y []int, _ []TableArg, workers int) (ml.Classifier, error) {
		m := ml.NewGaussianNB()
		return m, m.FitWorkers(X, y, workers)
	})

	// predict scores feature columns against the cached models through
	// ml's batch scoring (predictRuns): the cache hands back each run's
	// already deserialized classifier (pointer-identity fast path) and
	// PredictLabelsInto writes straight into the result column — no
	// per-call Unmarshal, no per-row feature boxing.
	mustRegisterScalar(&ScalarFunc{
		Name:       "predict",
		Arity:      -1,
		Parallel:   true,
		ReturnType: core.FixedReturn(Int32),
		Eval: func(args []*Vector) (*Vector, error) {
			out, err := predictRuns("predict", args, cache, ml.PredictLabelsInto)
			if err != nil {
				return nil, err
			}
			return vector.FromInt32s(out), nil
		},
	})

	mustRegisterScalar(&ScalarFunc{
		Name:       "predict_confidence",
		Arity:      -1,
		Parallel:   true,
		ReturnType: core.FixedReturn(Float64),
		Eval: func(args []*Vector) (*Vector, error) {
			out, err := predictRuns("predict_confidence", args, cache, ml.PredictConfidenceInto)
			if err != nil {
				return nil, err
			}
			return vector.FromFloat64s(out), nil
		},
	})

	// weighted_label(id, w0, w1, seed) draws class 0 with probability
	// w0/(w0+w1) using a per-row hash of (id, seed): the paper's
	// weighted-random "true" label generation, made deterministic and
	// partition-safe.
	mustRegisterScalar(&ScalarFunc{
		Name:       "weighted_label",
		Arity:      4,
		Parallel:   true,
		ReturnType: core.FixedReturn(Int32),
		Eval: func(args []*Vector) (*Vector, error) {
			ids, err := args[0].AsFloat64s()
			if err != nil {
				return nil, fmt.Errorf("weighted_label: %w", err)
			}
			w0, err := args[1].AsFloat64s()
			if err != nil {
				return nil, fmt.Errorf("weighted_label: %w", err)
			}
			w1, err := args[2].AsFloat64s()
			if err != nil {
				return nil, fmt.Errorf("weighted_label: %w", err)
			}
			seeds, err := args[3].AsFloat64s()
			if err != nil {
				return nil, fmt.Errorf("weighted_label: %w", err)
			}
			out := make([]int32, len(ids))
			for i := range out {
				u := hashUnit(uint64(ids[i]), uint64(seeds[i]))
				total := w0[i] + w1[i]
				p0 := 0.5
				if total > 0 {
					p0 = w0[i] / total
				}
				if u < p0 {
					out[i] = 0
				} else {
					out[i] = 1
				}
			}
			return vector.FromInt32s(out), nil
		},
	})
}

// hashUnit maps (id, seed) to a uniform float in [0, 1) via
// splitmix64.
func hashUnit(id, seed uint64) float64 {
	x := id*0x9E3779B97F4A7C15 + seed + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// trainingData extracts column-major features and labels from a table
// UDF's first (relation) argument: all columns but the last are
// features, the last is the class label. maxParams bounds the trailing
// scalar parameters accepted.
func trainingData(fn string, args []TableArg, maxParams int) ([][]float64, []int, error) {
	if len(args) < 1 || !args[0].IsTable() {
		return nil, nil, fmt.Errorf("%s: first argument must be a relation (subquery)", fn)
	}
	if len(args) > 1+maxParams {
		return nil, nil, fmt.Errorf("%s: at most %d scalar parameters, got %d", fn, maxParams, len(args)-1)
	}
	rel := args[0].Table
	if rel.NumCols() < 2 {
		return nil, nil, fmt.Errorf("%s: relation needs at least one feature column and a label column", fn)
	}
	nf := rel.NumCols() - 1
	X := make([][]float64, nf)
	for i := 0; i < nf; i++ {
		col, err := rel.Cols[i].AsFloat64s()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: feature column %q: %w", fn, rel.Names[i], err)
		}
		X[i] = col
	}
	labelCol, err := rel.Cols[nf].AsInt32s()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: label column %q: %w", fn, rel.Names[nf], err)
	}
	y := make([]int, len(labelCol))
	for i, l := range labelCol {
		y[i] = int(l)
	}
	return X, y, nil
}

// scalarInt reads the idx-th argument as an integer, with a default
// when absent or NULL.
func scalarInt(args []TableArg, idx int, def int64) int64 {
	if idx >= len(args) || args[idx].IsTable() || args[idx].Scalar.IsNull() {
		return def
	}
	return args[idx].Scalar.Int64()
}

// modelCache memoizes deserialized models keyed by the SHA-256 digest
// of the blob, so a hit serves the classifier of exactly those bytes
// while an entry keeps 32 bytes, not a multi-megabyte blob. It holds a
// fixed number of entries and evicts one at a time, so filling it does
// not drop every hot model at once.
//
// In front of it sits a small MRU pointer-identity ring: engine blobs
// are immutable once stored, so (&blob[0], len) identifies the bytes
// without hashing them, which streaming PREDICT would otherwise do once
// per 2048-row chunk. A copy of a blob misses the ring and falls
// through to the digest map: identity is an accelerator, never an
// identity *assumption*.
type modelCache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]ml.Classifier
	ident   [identSlots]identEntry
}

// identSlots bounds the pointer-identity ring; queries rarely score
// against more than a couple of live models at once.
const identSlots = 4

// identEntry caches one deserialized model by blob identity.
type identEntry struct {
	ptr  *byte
	size int
	clf  ml.Classifier
}

const modelCacheMaxEntries = 64

func newModelCache() *modelCache {
	return &modelCache{entries: make(map[[sha256.Size]byte]ml.Classifier)}
}

func (c *modelCache) get(blob []byte) (ml.Classifier, error) {
	if len(blob) > 0 {
		p := &blob[0]
		c.mu.Lock()
		for i := range c.ident {
			e := c.ident[i]
			if e.ptr == p && e.size == len(blob) {
				if i != 0 {
					copy(c.ident[1:i+1], c.ident[0:i])
					c.ident[0] = e
				}
				c.mu.Unlock()
				return e.clf, nil
			}
		}
		c.mu.Unlock()
	}
	digest := sha256.Sum256(blob)
	c.mu.Lock()
	if clf, ok := c.entries[digest]; ok {
		c.noteIdentLocked(blob, clf)
		c.mu.Unlock()
		return clf, nil
	}
	c.mu.Unlock()
	clf, err := ml.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.entries[digest]; !ok && len(c.entries) >= modelCacheMaxEntries {
		// Evict one arbitrary entry (Go map iteration order).
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[digest] = clf
	c.noteIdentLocked(blob, clf)
	c.mu.Unlock()
	return clf, nil
}

// noteIdentLocked records the blob identity at the ring's MRU slot.
// Callers hold c.mu.
func (c *modelCache) noteIdentLocked(blob []byte, clf ml.Classifier) {
	if len(blob) == 0 {
		return
	}
	copy(c.ident[1:], c.ident[:len(c.ident)-1])
	c.ident[0] = identEntry{ptr: &blob[0], size: len(blob), clf: clf}
}

// predictRuns scores the feature columns args[1:] into a new result
// column, each run of rows that share a model blob (args[0]; the same
// bytes by pointer identity, as the cache's ring compares them) with
// that blob's classifier from the §5.1 snapshot cache — the body of the
// paper's Listing 2, minus the per-call deserialization. A NULL model
// in any row fails the call.
func predictRuns[T any](fn string, args []*Vector, cache *modelCache, score func(ml.Classifier, [][]float64, []T) error) ([]T, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("%s: requires (model, feature...) arguments", fn)
	}
	models := args[0]
	if models.Type() != Blob {
		return nil, fmt.Errorf("%s: first argument must be a model BLOB, got %s", fn, models.Type())
	}
	n := models.Len()
	if n == 0 {
		return nil, fmt.Errorf("%s: empty input", fn)
	}
	X := make([][]float64, len(args)-1)
	for i, a := range args[1:] {
		col, err := a.AsFloat64s()
		if err != nil {
			return nil, fmt.Errorf("%s: feature %d: %w", fn, i, err)
		}
		X[i] = col
	}
	out := make([]T, n)
	blobs, run := models.Blobs(), make([][]float64, len(X))
	for lo := 0; lo < n; {
		if models.IsNull(lo) {
			return nil, fmt.Errorf("%s: model is NULL", fn)
		}
		b := blobs[lo]
		hi := lo + 1
		for hi < n && !models.IsNull(hi) && len(blobs[hi]) == len(b) && (len(b) == 0 || &blobs[hi][0] == &b[0]) {
			hi++
		}
		clf, err := cache.get(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fn, err)
		}
		for i, col := range X {
			run[i] = col[lo:hi]
		}
		if err := score(clf, run, out[lo:hi]); err != nil {
			return nil, err
		}
		lo = hi
	}
	return out, nil
}
