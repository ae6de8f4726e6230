package vexdb

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/ml"
)

// trainKNNBlob fits a tiny KNN on a one-point training set derived
// from seed and returns its serialized form. KNN serialization stores
// the training data, so distinct seeds yield distinct valid blobs.
func trainKNNBlob(t testing.TB, seed int) []byte {
	t.Helper()
	m := ml.NewKNN(1)
	if err := m.Fit([][]float64{{float64(seed)}}, []int{seed % 3}); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestModelCacheDistinguishesEqualLengthBlobs: two models whose blobs
// have the same length and different bytes get classifiers of their
// own, each predicting its own training point's class.
func TestModelCacheDistinguishesEqualLengthBlobs(t *testing.T) {
	blobA, blobB := trainKNNBlob(t, 1), trainKNNBlob(t, 2)
	if len(blobA) != len(blobB) || string(blobA) == string(blobB) {
		t.Fatalf("blobs of %d and %d bytes, equal: %v", len(blobA), len(blobB), string(blobA) == string(blobB))
	}
	c := newModelCache()
	for _, seed := range []int{1, 2, 1, 2} {
		// A fresh copy each time misses the identity ring, so every
		// get goes through the digest map.
		blob := append([]byte(nil), map[int][]byte{1: blobA, 2: blobB}[seed]...)
		clf, err := c.get(blob)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ml.Predict(clf, [][]float64{{float64(seed)}})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != seed%3 {
			t.Fatalf("model %d served the other's classifier: predicted %d, want %d", seed, got[0], seed%3)
		}
	}
	if n := len(c.entries); n != 2 {
		t.Fatalf("%d entries for two models", n)
	}
}

// TestModelCacheSingleEntryEviction: inserting past the capacity must
// evict exactly one entry, not clear the whole cache.
func TestModelCacheSingleEntryEviction(t *testing.T) {
	c := newModelCache()
	blobs := make([][]byte, modelCacheMaxEntries+1)
	for i := range blobs {
		blobs[i] = trainKNNBlob(t, i)
		if _, err := c.get(blobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n != modelCacheMaxEntries {
		t.Fatalf("cache holds %d entries after overflow, want %d", n, modelCacheMaxEntries)
	}
}

// TestModelCacheHitReturnsSameInstance: the §5.1 snapshot cache must
// avoid re-deserialization on repeated identical blobs.
func TestModelCacheHitReturnsSameInstance(t *testing.T) {
	c := newModelCache()
	blob := trainKNNBlob(t, 7)
	a, err := c.get(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh slice with equal bytes must hit the same entry.
	b, err := c.get(append([]byte(nil), blob...))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical blob bytes missed the cache")
	}
}

// TestPredictCachedEndToEnd drives predict through SQL, in a WHERE
// clause and again on a cache hit, so the verified model cache sits on
// the real PREDICT path.
func TestPredictCachedEndToEnd(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE d (f0 DOUBLE, f1 DOUBLE, label INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		cls := 0
		if i%2 == 1 {
			cls = 1
		}
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO d VALUES (%d.0, %d.5, %d)", i%7, (i*3)%5, cls)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ExecScript(`
		CREATE TABLE models AS SELECT model FROM train_tree((SELECT f0, f1, label FROM d), 6)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT count(*) AS n FROM d, models WHERE predict(model, f0, f1) >= 0`
	tab, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("n").Get(0).Int64() != 40 {
		t.Fatalf("predict covered %d rows, want 40", tab.Column("n").Get(0).Int64())
	}
	// Second run hits the cache; results must be identical.
	tab2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Column("n").Get(0).Int64() != 40 {
		t.Fatal("cached run diverged")
	}
}

// TestPredictScoresEachRowWithItsModel joins 3000 points with two
// tree models trained on opposite labels, models on either side of the
// join: every row's label and confidence must be its own model's,
// scored outside SQL, at every Matrix point. predict once scored a
// whole chunk with its first row's model, so a chunk holding rows of
// both models got one model's labels, depending on join order.
func TestPredictScoresEachRowWithItsModel(t *testing.T) {
	db := Open()
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 6)
	}
	pts, err := NewTable([]string{"x"}, []*Vector{NewVectorFloat64(xs)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFrom("pts", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecScript(`
		CREATE TABLE tr (x DOUBLE, y INTEGER, z INTEGER);
		INSERT INTO tr VALUES (0.0, 0, 1), (1.0, 0, 1), (2.0, 0, 1), (3.0, 1, 0), (4.0, 1, 0), (5.0, 1, 0);
		CREATE TABLE ms (id INTEGER, model BLOB);
		INSERT INTO ms SELECT 1, model FROM train_tree((SELECT x, y FROM tr), 4);
		INSERT INTO ms SELECT 2, model FROM train_tree((SELECT x, z FROM tr), 4)`); err != nil {
		t.Fatal(err)
	}
	models, err := db.Query("SELECT id, model FROM ms")
	if err != nil {
		t.Fatal(err)
	}
	clfs := map[int32]ml.Classifier{}
	for r := 0; r < models.NumRows(); r++ {
		if clfs[models.Cols[0].Int32s()[r]], err = ml.Unmarshal(models.Cols[1].Blobs()[r]); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []string{"pts p, ms m", "ms m, pts p"} {
		q := "SELECT p.x, m.id, predict(m.model, p.x) AS label, predict_confidence(m.model, p.x) AS conf FROM " + from
		tab := difftest.Matrix(t, q, 64<<10, at(db, q))
		if tab.NumRows() != 2*len(xs) {
			t.Fatalf("%s: %d rows, want %d", from, tab.NumRows(), 2*len(xs))
		}
		labels, confs := make([]int32, 1), make([]float64, 1)
		for r := 0; r < tab.NumRows(); r++ {
			x, id := tab.Cols[0].Float64s()[r], tab.Cols[1].Int32s()[r]
			X := [][]float64{{x}}
			if err := ml.PredictLabelsInto(clfs[id], X, labels); err != nil {
				t.Fatal(err)
			}
			if err := ml.PredictConfidenceInto(clfs[id], X, confs); err != nil {
				t.Fatal(err)
			}
			if got := tab.Cols[2].Int32s()[r]; got != labels[0] || tab.Cols[3].Float64s()[r] != confs[0] {
				t.Fatalf("%s: row %d (x=%v, model %d) scored %d/%v, its model gives %d/%v",
					from, r, x, id, got, tab.Cols[3].Float64s()[r], labels[0], confs[0])
			}
		}
	}
}

// TestPredictRejectsCraftedModelBlob: a model BLOB written as a SQL
// literal whose root splits on feature 5 of a one-feature tree once
// panicked a morsel worker and took the process down. It must now be
// an error of the query.
func TestPredictRejectsCraftedModelBlob(t *testing.T) {
	tree := ml.NewDecisionTree()
	if err := tree.Fit([][]float64{{0, 1, 2, 3}}, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version and kind (7 bytes), four hyperparameters, two
	// classes, the feature count and the node count precede the root's
	// feature index.
	const rootFeature = 7 + 4*8 + 8 + 2*8 + 8 + 8
	if f := binary.LittleEndian.Uint32(blob[rootFeature:]); f != 0 || len(tree.Classes()) != 2 {
		t.Fatalf("unexpected layout: root feature %d, classes %v", f, tree.Classes())
	}
	binary.LittleEndian.PutUint32(blob[rootFeature:], 5)

	db := Open()
	if _, err := db.Exec("CREATE TABLE f (x DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO f VALUES (0.5), (2.5), (7)"); err != nil {
		t.Fatal(err)
	}
	literal := strings.ReplaceAll(string(blob), "'", "''")
	for _, fn := range []string{"predict", "predict_confidence"} {
		_, err := db.Query(fmt.Sprintf("SELECT %s(CAST('%s' AS BLOB), x) FROM f", fn, literal))
		if err == nil || !strings.Contains(err.Error(), "corrupt model blob") {
			t.Fatalf("%s over a crafted blob: err = %v, want a corrupt-model error", fn, err)
		}
	}
}
