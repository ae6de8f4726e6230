package modelstore

import (
	"testing"

	"vexdb"
	"vexdb/ml"
)

func trainSample(t *testing.T, seed int64) ([][]float64, []int) {
	t.Helper()
	n := 200
	x0 := make([]float64, n)
	x1 := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		off := float64(cls) * 4
		x0[i] = off + float64((i*7+int(seed))%10)*0.1
		x1[i] = off + float64((i*3+int(seed))%10)*0.1
		y[i] = cls
	}
	return [][]float64{x0, x1}, y
}

func fitted(t *testing.T, c ml.Classifier, seed int64) ml.Classifier {
	t.Helper()
	X, y := trainSample(t, seed)
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSaveLoadList(t *testing.T) {
	db := vexdb.Open()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.Save("voters_rf", fitted(t, ml.NewRandomForest(4), 1),
		map[string]string{"n_estimators": "4", "max_depth": "12"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Save("voters_nb", fitted(t, ml.NewGaussianNB(), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d", id1, id2)
	}
	clf, meta, err := s.Load(id1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Algo != "random_forest" || meta.Params != "max_depth=12,n_estimators=4" {
		t.Fatalf("meta = %+v", meta)
	}
	X, y := trainSample(t, 1)
	pred, err := ml.Predict(clf, X)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := ml.Accuracy(y, pred)
	if acc < 0.95 {
		t.Fatalf("reloaded accuracy %.3f", acc)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[1].Name != "voters_nb" {
		t.Fatalf("list = %+v", list)
	}
	if _, _, err := s.Load(99); err == nil {
		t.Error("missing model should fail")
	}
}

func TestLoadByName(t *testing.T) {
	db := vexdb.Open()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("m", fitted(t, ml.NewGaussianNB(), 1), nil); err != nil {
		t.Fatal(err)
	}
	id2, err := s.Save("m", fitted(t, ml.NewDecisionTree(), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := s.LoadByName("m")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != id2 || meta.Algo != "decision_tree" {
		t.Fatalf("LoadByName must return the latest: %+v", meta)
	}
}

func TestScoresAndBest(t *testing.T) {
	db := vexdb.Open()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Save("a", fitted(t, ml.NewGaussianNB(), 1), nil)
	b, _ := s.Save("b", fitted(t, ml.NewDecisionTree(), 2), nil)
	for _, rec := range []struct {
		id     int64
		metric string
		v      float64
	}{{a, "accuracy", 0.91}, {b, "accuracy", 0.97}, {a, "f1", 0.90}} {
		if err := s.RecordScore(rec.id, "test", rec.metric, rec.v); err != nil {
			t.Fatal(err)
		}
	}
	best, err := s.Best("test", "accuracy")
	if err != nil {
		t.Fatal(err)
	}
	if best != b {
		t.Fatalf("best = %d, want %d", best, b)
	}
	scores, err := s.Scores(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 || scores[0].Metric != "accuracy" {
		t.Fatalf("scores = %+v", scores)
	}
	if _, err := s.Best("test", "nonexistent"); err == nil {
		t.Error("missing metric should fail")
	}
}

func TestMetaAnalysisViaSQL(t *testing.T) {
	// Models and scores are ordinary tables: relational meta-analysis
	// works with plain SQL (paper §3.3).
	db := vexdb.Open()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Save("a", fitted(t, ml.NewGaussianNB(), 1), nil)
	b, _ := s.Save("b", fitted(t, ml.NewRandomForest(2), 2), nil)
	_ = s.RecordScore(a, "test", "accuracy", 0.91)
	_ = s.RecordScore(b, "test", "accuracy", 0.88)
	tab, err := db.Query(`
		SELECT m.algo, avg(sc.value) AS acc
		FROM ml_models m JOIN ml_scores sc ON m.id = sc.model_id
		GROUP BY m.algo ORDER BY acc DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.Column("algo").Get(0).Str() != "gaussian_nb" {
		t.Fatalf("meta-analysis result wrong: %v", tab.Column("algo").Get(0))
	}
}

func TestEnsembleMajorityAndConfidence(t *testing.T) {
	db := vexdb.Open()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{}
	for i, c := range []ml.Classifier{ml.NewGaussianNB(), ml.NewDecisionTree(), ml.NewRandomForest(4)} {
		id, err := s.Save("m", fitted(t, c, int64(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	e, err := s.LoadEnsemble(ids...)
	if err != nil {
		t.Fatal(err)
	}
	X, y := trainSample(t, 0)
	maj, err := e.PredictMajority(X)
	if err != nil {
		t.Fatal(err)
	}
	accMaj, _ := ml.Accuracy(y, maj)
	if accMaj < 0.95 {
		t.Fatalf("majority accuracy %.3f", accMaj)
	}
	labels, winner, err := e.PredictHighestConfidence(X)
	if err != nil {
		t.Fatal(err)
	}
	accConf, _ := ml.Accuracy(y, labels)
	if accConf < 0.95 {
		t.Fatalf("confidence accuracy %.3f", accConf)
	}
	for _, w := range winner {
		if w < 0 || w >= len(ids) {
			t.Fatalf("winner index %d out of range", w)
		}
	}
	if _, err := s.LoadEnsemble(); err == nil {
		t.Error("empty ensemble should fail")
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	db := vexdb.Open()
	if _, err := Open(db); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db); err != nil {
		t.Fatal(err)
	}
}

func TestEscapedNames(t *testing.T) {
	db := vexdb.Open()
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Save("it's a model", fitted(t, ml.NewGaussianNB(), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := s.LoadByName("it's a model")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != id {
		t.Fatal("quoted name round trip")
	}
}
