// Model management: persist models and their metadata in database
// tables, query them with SQL, save the whole database to disk, and
// reopen it later with the models intact — the paper's answer to
// ModelDB, realized inside the column store.
package main

import (
	"fmt"
	"log"
	"os"

	"vexdb"
	"vexdb/ml"
	"vexdb/modelstore"
)

func main() {
	dir, err := os.MkdirTemp("", "vexdb-models-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Session 1: train models with different hyperparameters and
	// record their cross-validation scores.
	db := vexdb.Open()
	store, err := modelstore.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	X, y := blobs(1200)
	for _, depth := range []int{2, 6, 12} {
		scores, err := ml.CrossValidate(func() ml.Classifier {
			t := ml.NewDecisionTree()
			t.MaxDepth = depth
			return t
		}, X, y, 5, 1)
		if err != nil {
			log.Fatal(err)
		}
		mean := 0.0
		for _, s := range scores {
			mean += s
		}
		mean /= float64(len(scores))

		tree := ml.NewDecisionTree()
		tree.MaxDepth = depth
		if err := tree.Fit(X, y); err != nil {
			log.Fatal(err)
		}
		id, err := store.Save("depth_sweep", tree,
			map[string]string{"max_depth": fmt.Sprint(depth)})
		if err != nil {
			log.Fatal(err)
		}
		if err := store.RecordScore(id, "blobs_cv", "accuracy", mean); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model %d: max_depth=%-2d 5-fold accuracy %.4f\n", id, depth, mean)
	}

	// Meta-analysis with plain SQL: hyperparameters vs quality.
	report, err := db.Query(`
		SELECT m.params AS params, s.value AS accuracy
		FROM ml_models m JOIN ml_scores s ON m.id = s.model_id
		ORDER BY s.value DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSQL meta-analysis (ORDER BY accuracy DESC):")
	for i := 0; i < report.NumRows(); i++ {
		fmt.Printf("  %-16s %.4f\n",
			report.Column("params").Get(i).Str(),
			report.Column("accuracy").Get(i).Float64())
	}

	if err := db.SaveDir(dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndatabase (including model BLOBs) saved to %s\n", dir)

	// Session 2: reopen and use the best stored model directly.
	db2, err := vexdb.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	store2, err := modelstore.Open(db2)
	if err != nil {
		log.Fatal(err)
	}
	bestID, err := store2.Best("blobs_cv", "accuracy")
	if err != nil {
		log.Fatal(err)
	}
	clf, meta, err := store2.Load(bestID)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := ml.Predict(clf, X)
	if err != nil {
		log.Fatal(err)
	}
	acc, _ := ml.Accuracy(y, pred)
	fmt.Printf("reloaded best model #%d (%s, %s): training-set accuracy %.4f\n",
		meta.ID, meta.Algo, meta.Params, acc)
}

// blobs generates two separable clusters.
func blobs(n int) ([][]float64, []int) {
	x0 := make([]float64, n)
	x1 := make([]float64, n)
	y := make([]int, n)
	state := uint64(99)
	rnd := func() float64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64((state*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		cls := i % 2
		off := float64(cls) * 1.2
		x0[i] = off + (rnd()-0.5)*3
		x1[i] = off + (rnd()-0.5)*3
		y[i] = cls
	}
	return [][]float64{x0, x1}, y
}
