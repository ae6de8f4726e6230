package ml

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// The reference fits: the serial Fit bodies naive Bayes and logistic
// regression carried beside their morsel-parallel FitWorkers before
// each model kept one fit. They stay here verbatim (as functions) so
// the parallel fits are held to them.

// refFitNB is the two-pass serial GaussianNB fit: means, then centered
// deviations for the variances.
func refFitNB(m *GaussianNB, X [][]float64, y []int) error {
	n, err := validateXY(X, y)
	if err != nil {
		return err
	}
	classes, cidx := classIndex(y)
	m.classes = classes
	m.nfeat = len(X)
	k := len(classes)
	counts := make([]float64, k)
	m.means = make([][]float64, k)
	m.vars = make([][]float64, k)
	for c := 0; c < k; c++ {
		m.means[c] = make([]float64, m.nfeat)
		m.vars[c] = make([]float64, m.nfeat)
	}
	for i, c := range y {
		ci := cidx[c]
		counts[ci]++
		for f := 0; f < m.nfeat; f++ {
			m.means[ci][f] += X[f][i]
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for f := 0; f < m.nfeat; f++ {
			m.means[c][f] /= counts[c]
		}
	}
	for i, c := range y {
		ci := cidx[c]
		for f := 0; f < m.nfeat; f++ {
			d := X[f][i] - m.means[ci][f]
			m.vars[ci][f] += d * d
		}
	}
	// Smoothing relative to the global variance scale.
	maxVar := 0.0
	for c := 0; c < k; c++ {
		for f := 0; f < m.nfeat; f++ {
			if counts[c] > 0 {
				m.vars[c][f] /= counts[c]
			}
			if m.vars[c][f] > maxVar {
				maxVar = m.vars[c][f]
			}
		}
	}
	eps := m.VarSmoothing
	if eps <= 0 {
		eps = 1e-9 * maxVar
		if eps <= 0 {
			eps = 1e-9
		}
	}
	for c := 0; c < k; c++ {
		for f := 0; f < m.nfeat; f++ {
			m.vars[c][f] += eps
		}
	}
	m.priors = make([]float64, k)
	for c := 0; c < k; c++ {
		m.priors[c] = math.Log(counts[c] / float64(n))
	}
	return nil
}

// refFitLogReg is the serial full-batch gradient descent: one pass
// over all rows per iteration.
func refFitLogReg(m *LogisticRegression, X [][]float64, y []int) error {
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
	m.classes = classes
	m.nfeat = len(X)
	p := len(X)

	m.weights = make([][]float64, len(classes))
	targets := make([]float64, n)
	grad := make([]float64, p+1)
	preds := make([]float64, n)
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
			// preds = sigmoid(Xw + b), computed column-wise.
			for i := range preds {
				preds[i] = w[p] // bias
			}
			for f := 0; f < p; f++ {
				wf := w[f]
				if wf == 0 {
					continue
				}
				col := X[f]
				for i := range preds {
					preds[i] += wf * col[i]
				}
			}
			for i := range preds {
				preds[i] = sigmoid(preds[i]) - targets[i] // residual
			}
			// grad = X^T residual / n + l2*w
			for f := 0; f < p; f++ {
				col := X[f]
				g := 0.0
				for i := range preds {
					g += col[i] * preds[i]
				}
				grad[f] = g/float64(n) + m.L2*w[f]
			}
			gb := 0.0
			for i := range preds {
				gb += preds[i]
			}
			grad[p] = gb / float64(n)
			for f := range w {
				w[f] -= m.LearningRate * grad[f]
			}
		}
		m.weights[k] = w
	}
	return nil
}

// cleanDataset is batchDataset with its NaNs zeroed: NaN propagation
// is not what the closeness checks compare.
func cleanDataset(n, nfeat int, seed int64) ([][]float64, []int) {
	X, y := batchDataset(n, nfeat, seed)
	return withoutNaN(X), y
}

// TestNBParallelCloseToSerial sanity-checks that sufficient-statistics
// training matches the two-pass serial fit to numerical tolerance.
func TestNBParallelCloseToSerial(t *testing.T) {
	X, y := cleanDataset(3000, 4, 17)
	serial := NewGaussianNB()
	if err := refFitNB(serial, X, y); err != nil {
		t.Fatal(err)
	}
	par := NewGaussianNB()
	if err := par.FitWorkers(X, y, 4); err != nil {
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

// TestLogRegParallelMatchesSerial: on one morsel (≤ 2048 rows) the
// morsel-parallel gradient sums exactly as the serial pass, so the
// models are bit-identical; beyond it only the summation grouping
// differs, so the weights stay close.
func TestLogRegParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{7, 700, fitMorselRows, 3*fitMorselRows + 5} {
		X, y := cleanDataset(n, 4, int64(n))
		serial, par := NewLogisticRegression(), NewLogisticRegression()
		serial.Iterations, par.Iterations = 50, 50
		if err := refFitLogReg(serial, X, y); err != nil {
			t.Fatal(err)
		}
		if err := par.FitWorkers(X, y, 4); err != nil {
			t.Fatal(err)
		}
		if len(y) <= fitMorselRows {
			if !bytes.Equal(mustMarshal(t, serial), mustMarshal(t, par)) {
				t.Fatalf("%d rows: parallel fit differs from the serial fit", len(y))
			}
			continue
		}
		for k := range serial.weights {
			for f := range serial.weights[k] {
				if d := math.Abs(serial.weights[k][f] - par.weights[k][f]); d > 1e-9 {
					t.Fatalf("%d rows: weight[%d][%d] differs by %v", len(y), k, f, d)
				}
			}
		}
	}
}
