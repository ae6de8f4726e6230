// Ensemble learning with stored models (paper §3.3): train several
// model families, persist them with their test scores in database
// tables, pick the best with a relational query, and combine them by
// majority vote and by highest reported confidence.
package main

import (
	"fmt"
	"log"
	"math"

	"vexdb"
	"vexdb/ml"
	"vexdb/modelstore"
)

func main() {
	// A noisy two-moon-ish dataset: two offset arcs.
	X, y := moons(2000)
	trainX, trainY, testX, testY, err := ml.TrainTestSplit(X, y, 0.3, 7)
	if err != nil {
		log.Fatal(err)
	}

	db := vexdb.Open()
	store, err := modelstore.Open(db)
	if err != nil {
		log.Fatal(err)
	}

	candidates := []ml.Classifier{
		ml.NewRandomForest(16),
		ml.NewDecisionTree(),
		ml.NewLogisticRegression(),
		ml.NewGaussianNB(),
		ml.NewKNN(7),
	}
	var ids []int64
	for _, m := range candidates {
		if err := m.Fit(trainX, trainY); err != nil {
			log.Fatal(err)
		}
		pred, err := ml.Predict(m, testX)
		if err != nil {
			log.Fatal(err)
		}
		acc, _ := ml.Accuracy(testY, pred)
		id, err := store.Save("moons_"+m.Name(), m, map[string]string{"dataset": "moons"})
		if err != nil {
			log.Fatal(err)
		}
		if err := store.RecordScore(id, "moons_test", "accuracy", acc); err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		fmt.Printf("%-22s accuracy %.4f (stored as model %d)\n", m.Name(), acc, id)
	}

	// Meta-analysis with plain SQL over the model tables.
	best, err := store.Best("moons_test", "accuracy")
	if err != nil {
		log.Fatal(err)
	}
	_, meta, err := store.Load(best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest model by SQL meta-analysis: #%d (%s)\n", best, meta.Algo)

	ens, err := store.LoadEnsemble(ids...)
	if err != nil {
		log.Fatal(err)
	}
	maj, err := ens.PredictMajority(testX)
	if err != nil {
		log.Fatal(err)
	}
	majAcc, _ := ml.Accuracy(testY, maj)
	conf, winners, err := ens.PredictHighestConfidence(testX)
	if err != nil {
		log.Fatal(err)
	}
	confAcc, _ := ml.Accuracy(testY, conf)
	fmt.Printf("ensemble majority vote:       %.4f\n", majAcc)
	fmt.Printf("ensemble highest confidence:  %.4f\n", confAcc)

	wins := make(map[int]int)
	for _, w := range winners {
		wins[w]++
	}
	fmt.Println("\nwhich stored model was most confident, per test row:")
	for i, id := range ids {
		fmt.Printf("  model %d (%s): %d rows\n", id, candidates[i].Name(), wins[i])
	}
}

// moons generates two interleaved noisy arcs.
func moons(n int) ([][]float64, []int) {
	x0 := make([]float64, n)
	x1 := make([]float64, n)
	y := make([]int, n)
	state := uint64(42)
	rnd := func() float64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64((state*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		t := rnd() * 3.14159
		cls := i % 2
		if cls == 0 {
			x0[i] = math.Cos(t) + (rnd()-0.5)*0.3
			x1[i] = math.Sin(t) + (rnd()-0.5)*0.3
		} else {
			x0[i] = 1 - math.Cos(t) + (rnd()-0.5)*0.3
			x1[i] = 0.5 - math.Sin(t) + (rnd()-0.5)*0.3
		}
		y[i] = cls
	}
	return [][]float64{x0, x1}, y
}
