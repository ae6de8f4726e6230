package ml

import "fmt"

// Accuracy returns the fraction of predictions equal to the truth.
func Accuracy(truth, pred []int) (float64, error) {
	if len(truth) != len(pred) {
		return 0, fmt.Errorf("ml: %d truths vs %d predictions", len(truth), len(pred))
	}
	if len(truth) == 0 {
		return 0, fmt.Errorf("ml: empty inputs")
	}
	correct := 0
	for i := range truth {
		if truth[i] == pred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(truth)), nil
}

// TrainTestSplit splits rows into train and test partitions with the
// given test fraction, deterministically shuffled by seed.
func TrainTestSplit(X [][]float64, y []int, testFraction float64, seed int64) (trainX [][]float64, trainY []int, testX [][]float64, testY []int, err error) {
	n, err := validateXY(X, y)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if testFraction <= 0 || testFraction >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("ml: test fraction %v out of (0,1)", testFraction)
	}
	perm := newRNG(seed).Perm(n)
	nTest := int(float64(n) * testFraction)
	if nTest == 0 {
		nTest = 1
	}
	trainX, trainY = gather(X, y, perm[nTest:])
	testX, testY = gather(X, y, perm[:nTest])
	return trainX, trainY, testX, testY, nil
}

// gather copies rows idx of X and y, in idx order.
func gather(X [][]float64, y []int, idx []int) ([][]float64, []int) {
	gx := make([][]float64, len(X))
	for f, col := range X {
		g := make([]float64, len(idx))
		for i, r := range idx {
			g[i] = col[r]
		}
		gx[f] = g
	}
	gy := make([]int, len(idx))
	for i, r := range idx {
		gy[i] = y[r]
	}
	return gx, gy
}

// KFold yields k (trainIdx, testIdx) partitions of n rows,
// deterministically shuffled by seed.
func KFold(n, k int, seed int64) ([][2][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("ml: k=%d folds for %d rows", k, n)
	}
	perm := newRNG(seed).Perm(n)
	folds := make([][]int, k)
	for i, r := range perm {
		folds[i%k] = append(folds[i%k], r)
	}
	out := make([][2][]int, k)
	for i := 0; i < k; i++ {
		var train []int
		for j := 0; j < k; j++ {
			if j != i {
				train = append(train, folds[j]...)
			}
		}
		out[i] = [2][]int{train, folds[i]}
	}
	return out, nil
}

// CrossValidate fits and scores the model factory over k folds,
// returning per-fold accuracies.
func CrossValidate(factory func() Classifier, X [][]float64, y []int, k int, seed int64) ([]float64, error) {
	n, err := validateXY(X, y)
	if err != nil {
		return nil, err
	}
	folds, err := KFold(n, k, seed)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, k)
	for i, fold := range folds {
		trX, trY := gather(X, y, fold[0])
		teX, teY := gather(X, y, fold[1])
		model := factory()
		if err := model.Fit(trX, trY); err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", i, err)
		}
		pred, err := Predict(model, teX)
		if err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", i, err)
		}
		if scores[i], err = Accuracy(teY, pred); err != nil {
			return nil, err
		}
	}
	return scores, nil
}
