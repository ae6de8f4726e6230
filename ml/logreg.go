package ml

import (
	"fmt"
	"math"
)

// LogisticRegression is a one-vs-rest binary/multiclass logistic
// regression trained by full-batch gradient descent with L2
// regularization.
type LogisticRegression struct {
	// LearningRate is the gradient step size (default 0.1).
	LearningRate float64
	// Iterations is the gradient descent step count (default 200).
	Iterations int
	// L2 is the ridge penalty strength (default 1e-4).
	L2 float64

	header
	// weights[k] holds the weight vector (plus bias as last element)
	// of the one-vs-rest model for class k.
	weights [][]float64
}

// NewLogisticRegression returns a model with common defaults.
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{LearningRate: 0.1, Iterations: 200, L2: 1e-4}
}

// Name implements Classifier.
func (m *LogisticRegression) Name() string { return "logistic_regression" }

// Fit implements Classifier: FitWorkers with NumCPU workers.
func (m *LogisticRegression) Fit(X [][]float64, y []int) error { return m.FitWorkers(X, y, 0) }

// FitWorkers trains by full-batch gradient descent parallelized over
// row morsels: each iteration computes residuals over disjoint row
// ranges concurrently (per-row arithmetic) and accumulates per-morsel
// gradient partials that merge in morsel order. Fixed morsel
// boundaries make the fitted weights byte-identical at any worker
// count (0 means NumCPU). On one morsel (≤ fitMorselRows rows) the
// gradient sums exactly as a serial pass does.
func (m *LogisticRegression) FitWorkers(X [][]float64, y []int, workers int) error {
	n, err := validateXY(X, y)
	if err != nil {
		return err
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 0.1
	}
	if m.Iterations <= 0 {
		m.Iterations = 200
	}
	classes, cidx := classIndex(y)
	if len(classes) < 2 {
		return fmt.Errorf("ml: logistic regression needs at least 2 classes, got %d", len(classes))
	}
	p := len(X)
	m.header = header{classes: classes, nfeat: p}
	nm := numMorsels(n)

	m.weights = make([][]float64, len(classes))
	targets := make([]float64, n)
	preds := make([]float64, n)
	grad := make([]float64, p+1)
	partials := make([][]float64, nm)
	for mi := range partials {
		partials[mi] = make([]float64, p+1)
	}
	for k := range classes {
		w := make([]float64, p+1)
		for i, c := range y {
			if cidx[c] == k {
				targets[i] = 1
			} else {
				targets[i] = 0
			}
		}
		for it := 0; it < m.Iterations; it++ {
			parallelMorsels(workers, nm, func(mi int) {
				lo, hi := morselBounds(mi, n)
				// Residuals over this morsel's disjoint row range.
				for i := lo; i < hi; i++ {
					preds[i] = w[p] // bias
				}
				for f := 0; f < p; f++ {
					wf := w[f]
					if wf == 0 {
						continue
					}
					col := X[f]
					for i := lo; i < hi; i++ {
						preds[i] += wf * col[i]
					}
				}
				for i := lo; i < hi; i++ {
					preds[i] = sigmoid(preds[i]) - targets[i]
				}
				// This morsel's gradient partial: X^T residual.
				g := partials[mi]
				for f := 0; f < p; f++ {
					col := X[f]
					s := 0.0
					for i := lo; i < hi; i++ {
						s += col[i] * preds[i]
					}
					g[f] = s
				}
				s := 0.0
				for i := lo; i < hi; i++ {
					s += preds[i]
				}
				g[p] = s
			})
			// Merge partials in morsel order; the grouping is fixed by
			// the morsel layout, so the sum is worker-count independent.
			for f := 0; f <= p; f++ {
				s := 0.0
				for _, g := range partials {
					s += g[f]
				}
				if f < p {
					grad[f] = s/float64(n) + m.L2*w[f]
				} else {
					grad[f] = s / float64(n)
				}
			}
			for f := range w {
				w[f] -= m.LearningRate * grad[f]
			}
		}
		m.weights[k] = w
	}
	return nil
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

// probsInto is logistic regression's kernel: every class's one-vs-rest
// score computed column-wise over the chunk, then each row normalized
// to sum to one.
func (m *LogisticRegression) probsInto(X [][]float64, n int, probs []float64) {
	p := m.nfeat
	k := len(m.weights)
	scoresp := getFloats(n)
	scores := *scoresp
	for ki, w := range m.weights {
		for i := 0; i < n; i++ {
			scores[i] = w[p]
		}
		for f := 0; f < p; f++ {
			wf := w[f]
			if wf == 0 {
				continue
			}
			col := X[f]
			for i := 0; i < n; i++ {
				scores[i] += wf * col[i]
			}
		}
		for i := 0; i < n; i++ {
			probs[i*k+ki] = sigmoid(scores[i])
		}
	}
	putFloats(scoresp)
	for r := 0; r < n; r++ {
		row := probs[r*k : r*k+k]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum > 0 {
			for c := range row {
				row[c] /= sum
			}
		}
	}
}
