package ml

import (
	"container/heap"
	"math"
)

// KNN is a brute-force k-nearest-neighbours classifier with Euclidean
// distance. Fit stores the training data; scoring scans it.
type KNN struct {
	// K is the neighbour count (default 5).
	K int

	header
	trainX [][]float64 // column-major
	trainY []int       // class indices
}

// NewKNN returns a k-nearest-neighbours model.
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Name implements Classifier.
func (m *KNN) Name() string { return "knn" }

// Fit implements Classifier (stores a copy of the training set).
func (m *KNN) Fit(X [][]float64, y []int) error {
	_, err := validateXY(X, y)
	if err != nil {
		return err
	}
	if m.K <= 0 {
		m.K = 5
	}
	classes, cidx := classIndex(y)
	m.header = header{classes: classes, nfeat: len(X)}
	m.trainX = make([][]float64, len(X))
	for i, col := range X {
		m.trainX[i] = append([]float64(nil), col...)
	}
	m.trainY = make([]int, len(y))
	for i, c := range y {
		m.trainY[i] = cidx[c]
	}
	return nil
}

// distHeap is a max-heap of (distance, trainRow) keeping the K
// nearest seen so far.
type distHeap []distEntry

type distEntry struct {
	d   float64
	row int
}

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d > h[j].d } // max-heap
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// probsInto is KNN's kernel: per row, the class vote fractions of the
// K nearest training rows.
func (m *KNN) probsInto(X [][]float64, n int, probs []float64) {
	ntrain := len(m.trainY)
	k := min(m.K, ntrain)
	nc := len(m.classes)
	h := make(distHeap, 0, k+1)
	for r := 0; r < n; r++ {
		h = h[:0]
		for t := 0; t < ntrain; t++ {
			d := 0.0
			for f := 0; f < m.nfeat; f++ {
				diff := X[f][r] - m.trainX[f][t]
				d += diff * diff
			}
			if len(h) < k {
				heap.Push(&h, distEntry{d: d, row: t})
			} else if d < h[0].d {
				h[0] = distEntry{d: d, row: t}
				heap.Fix(&h, 0)
			}
		}
		votes := probs[r*nc : r*nc+nc]
		clear(votes)
		for _, e := range h {
			votes[m.trainY[e.row]]++
		}
		inv := 1 / math.Max(1, float64(len(h)))
		for i := range votes {
			votes[i] *= inv
		}
	}
}
