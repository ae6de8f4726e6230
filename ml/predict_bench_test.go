package ml

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// benchForest fits a forest of the voter pipeline's default shape
// (workload.DefaultConfig: 16 trees, depth 10, 6 features) and
// returns it with one chunk of scoring input.
func benchForest(b *testing.B, nrows int) (*RandomForest, [][]float64) {
	b.Helper()
	const nfeat = 6
	X, y := benchData(8000, nfeat)
	f := NewRandomForest(16)
	f.MaxDepth = 10
	f.Seed = 7
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	Xs, _ := benchData(nrows, nfeat)
	return f, Xs
}

func benchData(n, nfeat int) ([][]float64, []int) {
	X := make([][]float64, nfeat)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for f := range X {
		col := make([]float64, n)
		for i := range col {
			col[i] = next()*8 - 4
		}
		X[f] = col
	}
	y := make([]int, n)
	for i := range y {
		s := X[0][i] + X[1][i] - X[2][i]
		switch {
		case s > 1:
			y[i] = 2
		case s > -1:
			y[i] = 1
		}
		if i%97 == 0 {
			X[1][i] = math.NaN()
		}
	}
	return X, y
}

// BenchmarkForestBatch measures the streaming operator's scoring core:
// one 2048-row chunk through PredictLabelsInto.
func BenchmarkForestBatch(b *testing.B) {
	f, X := benchForest(b, 2048)
	out := make([]int32, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := PredictLabelsInto(f, X, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/2048, "ns/row")
}

// BenchmarkForestFit measures TRAIN on a voter-pipeline-shaped fit (30k
// rows, 6 features, 16 trees, depth 10) at one worker and at NumCPU.
func BenchmarkForestFit(b *testing.B) {
	const nrows = 30000
	X, y := benchData(nrows, 6)
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := NewRandomForest(16)
				f.MaxDepth = 10
				f.Seed = 7
				if err := f.FitWorkers(X, y, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nrows, "ns/row")
		})
	}
}
