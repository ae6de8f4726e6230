package ml

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
)

// The reference scorers: the row-at-a-time PredictProba methods every
// model carried beside its batch path before scoring went through one
// kernel per model. They stay here verbatim (as functions) as the
// oracle checkScoringMatchesReference holds the kernels to, bit for bit.

// refPredictProba dispatches to the model's reference scorer.
func refPredictProba(c Classifier, X [][]float64) ([][]float64, error) {
	switch m := c.(type) {
	case *DecisionTree:
		return refTreeProba(m, X)
	case *RandomForest:
		return refForestProba(m, X)
	case *GaussianNB:
		return refNBProba(m, X)
	case *LogisticRegression:
		return refLogRegProba(m, X)
	case *KNN:
		return refKNNProba(m, X)
	}
	return nil, fmt.Errorf("no reference scorer for %T", c)
}

// refRow extracts row r of a column-major matrix into dst (reused buffer).
func refRow(X [][]float64, r int, dst []float64) []float64 {
	dst = dst[:0]
	for _, col := range X {
		dst = append(dst, col[r])
	}
	return dst
}

// refPredictRowProbs walks the tree for one row.
func refPredictRowProbs(t *DecisionTree, x []float64) []float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.left < 0 {
			return nd.probs
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

func refTreeProba(t *DecisionTree, X [][]float64) ([][]float64, error) {
	if len(t.nodes) == 0 {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != t.nfeat {
		return nil, fmt.Errorf("ml: tree fitted on %d features, got %d", t.nfeat, len(X))
	}
	out := make([][]float64, n)
	buf := make([]float64, 0, t.nfeat)
	for r := 0; r < n; r++ {
		buf = refRow(X, r, buf)
		p := refPredictRowProbs(t, buf)
		out[r] = append([]float64(nil), p...)
	}
	return out, nil
}

// refForestProba: the average of the trees' leaf distributions.
func refForestProba(f *RandomForest, X [][]float64) ([][]float64, error) {
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
		buf = refRow(X, r, buf)
		acc := out[r]
		for _, t := range f.trees {
			p := refPredictRowProbs(t, buf)
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

func refNBProba(m *GaussianNB, X [][]float64) ([][]float64, error) {
	if m.means == nil {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != m.nfeat {
		return nil, fmt.Errorf("ml: model fitted on %d features, got %d", m.nfeat, len(X))
	}
	k := len(m.classes)
	out := make([][]float64, n)
	logp := make([]float64, k)
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			lp := m.priors[c]
			for f := 0; f < m.nfeat; f++ {
				v := m.vars[c][f]
				d := X[f][r] - m.means[c][f]
				lp += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
			}
			logp[c] = lp
		}
		out[r] = refSoftmaxFromLogs(logp)
	}
	return out, nil
}

// refSoftmaxFromLogs exponentiates shifted log scores into probabilities.
func refSoftmaxFromLogs(logp []float64) []float64 {
	out := make([]float64, len(logp))
	maxLog := logp[0]
	for _, v := range logp[1:] {
		if v > maxLog {
			maxLog = v
		}
	}
	sum := 0.0
	for i, v := range logp {
		out[i] = math.Exp(v - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// refLogRegProba: one-vs-rest scores normalized to sum to one.
func refLogRegProba(m *LogisticRegression, X [][]float64) ([][]float64, error) {
	if m.weights == nil {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != m.nfeat {
		return nil, fmt.Errorf("ml: model fitted on %d features, got %d", m.nfeat, len(X))
	}
	p := m.nfeat
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, len(m.classes))
	}
	scores := make([]float64, n)
	for k, w := range m.weights {
		for i := range scores {
			scores[i] = w[p]
		}
		for f := 0; f < p; f++ {
			wf := w[f]
			if wf == 0 {
				continue
			}
			col := X[f]
			for i := range scores {
				scores[i] += wf * col[i]
			}
		}
		for i := range scores {
			out[i][k] = sigmoid(scores[i])
		}
	}
	for i := range out {
		sum := 0.0
		for _, v := range out[i] {
			sum += v
		}
		if sum > 0 {
			for k := range out[i] {
				out[i][k] /= sum
			}
		}
	}
	return out, nil
}

// refKNNProba: neighbour vote fractions.
func refKNNProba(m *KNN, X [][]float64) ([][]float64, error) {
	if m.trainX == nil {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != m.nfeat {
		return nil, fmt.Errorf("ml: model fitted on %d features, got %d", m.nfeat, len(X))
	}
	ntrain := len(m.trainY)
	k := m.K
	if k > ntrain {
		k = ntrain
	}
	out := make([][]float64, n)
	q := make([]float64, m.nfeat)
	for r := 0; r < n; r++ {
		for f := 0; f < m.nfeat; f++ {
			q[f] = X[f][r]
		}
		h := make(distHeap, 0, k+1)
		for t := 0; t < ntrain; t++ {
			d := 0.0
			for f := 0; f < m.nfeat; f++ {
				diff := q[f] - m.trainX[f][t]
				d += diff * diff
			}
			if len(h) < k {
				heap.Push(&h, distEntry{d: d, row: t})
			} else if d < h[0].d {
				h[0] = distEntry{d: d, row: t}
				heap.Fix(&h, 0)
			}
		}
		votes := make([]float64, len(m.classes))
		for _, e := range h {
			votes[m.trainY[e.row]]++
		}
		inv := 1 / math.Max(1, float64(len(h)))
		for i := range votes {
			votes[i] *= inv
		}
		out[r] = votes
	}
	return out, nil
}

// probaOf returns the kernel's probabilities of every row of X, one
// slice per row.
func probaOf(t testing.TB, c Classifier, X [][]float64) [][]float64 {
	t.Helper()
	n, err := validateX(X)
	if err != nil {
		t.Fatal(err)
	}
	p, err := score(c, X, n)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	k := len(c.Classes())
	out := make([][]float64, n)
	for r := range out {
		out[r] = append([]float64(nil), (*p)[r*k:r*k+k]...)
	}
	putFloats(p)
	return out
}

// TestBatchPredictMatchesRowPath holds the kernels of the tree, forest,
// naive Bayes and logistic regression to their reference row paths.
func TestBatchPredictMatchesRowPath(t *testing.T) {
	checkScoringMatchesReference(t, func(c Classifier) bool {
		_, knn := c.(*KNN)
		return !knn
	})
}

// TestGenericBatchFallback holds the KNN kernel, which replaced the
// generic row-at-a-time fallback, to KNN's reference row path.
func TestGenericBatchFallback(t *testing.T) {
	checkScoringMatchesReference(t, func(c Classifier) bool {
		_, knn := c.(*KNN)
		return knn
	})
}

// checkScoringMatchesReference holds the kernel of every fitted model
// that keep selects to its reference scorer: labels and confidences
// from the package functions must equal the reference's argmax and max
// by Float64bits, over NaN-bearing features and over features equal to
// split thresholds (exactData's adjacent floats), whatever the chunk
// split (1 row, 700 rows, all rows).
func checkScoringMatchesReference(t *testing.T, keep func(Classifier) bool) {
	t.Helper()
	Xn, yn := batchDataset(1500, 5, 7)
	Xe, ye := exactData(newRNG(3), 1500, 5, 3)
	for _, data := range []struct {
		X [][]float64
		y []int
	}{{Xn, yn}, {Xe, ye}} {
		X, n := data.X, len(data.y)
		for _, clf := range fittedModels(t, X, data.y) {
			if !keep(clf) {
				continue
			}
			want, err := refPredictProba(clf, X)
			if err != nil {
				t.Fatalf("%s reference: %v", clf.Name(), err)
			}
			classes := clf.Classes()
			for _, chunk := range []int{1, 700, n} {
				labels := make([]int32, n)
				conf := make([]float64, n)
				for lo := 0; lo < n; lo += chunk {
					hi := min(lo+chunk, n)
					sub := make([][]float64, len(X))
					for f := range X {
						sub[f] = X[f][lo:hi]
					}
					if err := PredictLabelsInto(clf, sub, labels[lo:hi]); err != nil {
						t.Fatalf("%s labels: %v", clf.Name(), err)
					}
					if err := PredictConfidenceInto(clf, sub, conf[lo:hi]); err != nil {
						t.Fatalf("%s confidence: %v", clf.Name(), err)
					}
				}
				all, err := Predict(clf, X)
				if err != nil {
					t.Fatalf("%s predict: %v", clf.Name(), err)
				}
				for i, p := range want {
					wantLabel := classes[argmax(p)]
					if int(labels[i]) != wantLabel || all[i] != wantLabel {
						t.Fatalf("%s chunk %d row %d: labels %d/%d, reference %d", clf.Name(), chunk, i, labels[i], all[i], wantLabel)
					}
					if math.Float64bits(conf[i]) != math.Float64bits(maxProb(p)) {
						t.Fatalf("%s chunk %d row %d: confidence %v, reference %v", clf.Name(), chunk, i, conf[i], maxProb(p))
					}
				}
			}
			for i, p := range probaOf(t, clf, X) {
				for c := range p {
					if math.Float64bits(p[c]) != math.Float64bits(want[i][c]) {
						t.Fatalf("%s row %d class %d: kernel %v, reference %v", clf.Name(), i, c, p[c], want[i][c])
					}
				}
			}
		}
	}
}
