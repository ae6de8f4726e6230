package vexdb

import (
	"fmt"
	"strings"
	"testing"

	"vexdb/internal/difftest"
)

// at is difftest.Matrix's run for q over db.
func at(db *DB, q string) func(difftest.Point) (*Table, error) {
	return func(p difftest.Point) (*Table, error) {
		tab, _, err := queryAt(db, p, q)
		return tab, err
	}
}

// queryAt runs q over db at p — its width, budget and planner setting —
// through Query, or streamed through QueryStream's chunks, and returns
// the rows and, streamed, the closed Rows, whose counters stay
// readable. db's knobs are restored afterwards.
func queryAt(db *DB, p difftest.Point, q string) (*Table, *Rows, error) {
	e := db.eng
	defer func(w int, b int64, off bool) { e.Parallelism, e.MemoryBudget, e.NoCostPlanner = w, b, off }(e.Parallelism, e.MemoryBudget, e.NoCostPlanner)
	e.Parallelism, e.MemoryBudget, e.NoCostPlanner = p.Width, p.Budget, !p.Planner
	if !p.Streamed {
		tab, err := db.Query(q)
		return tab, nil, err
	}
	rows, err := db.QueryStream(q)
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	tab, err := difftest.Collect(rows.Columns(), rows.Types(), rows.rs.Next)
	return tab, rows, err
}

// buildLabeled populates a labeled 2-feature table mirroring the
// paper's training input: separable blobs.
func buildLabeled(t *testing.T, db *DB, name string, n int) {
	t.Helper()
	if _, err := db.Exec(fmt.Sprintf(
		"CREATE TABLE %s (id BIGINT, f0 DOUBLE, f1 DOUBLE, label INTEGER)", name)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
	for i := 0; i < n; i++ {
		cls := i % 2
		off := float64(cls) * 4
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %f, %f, %d)", i,
			off+float64(i%7)*0.1, off+float64(i%5)*0.1, cls)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

func TestTrainPredictInSQL(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "train_set", 200)

	// Listing 1: train inside the database, store the model in a table.
	if _, err := db.Exec(`CREATE TABLE models AS
		SELECT * FROM train_rf((SELECT f0, f1, label FROM train_set), 8, 6, 42)`); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Query("SELECT algo, n_features, trained_rows FROM models")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("algo").Get(0).Str() != "random_forest" {
		t.Fatalf("algo = %v", tab.Column("algo").Get(0))
	}
	if tab.Column("n_features").Get(0).Int64() != 2 || tab.Column("trained_rows").Get(0).Int64() != 200 {
		t.Fatal("metadata wrong")
	}

	// Listing 2: classify with the stored model via a cross join.
	res, err := db.Query(`
		SELECT t.label AS truth, predict(m.model, t.f0, t.f1) AS pred
		FROM train_set t, models m`)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < res.NumRows(); i++ {
		if res.Column("truth").Get(i).Int64() == res.Column("pred").Get(i).Int64() {
			correct++
		}
	}
	if acc := float64(correct) / float64(res.NumRows()); acc < 0.95 {
		t.Fatalf("in-SQL accuracy %.3f", acc)
	}
}

func TestPredictConfidence(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "d", 100)
	if _, err := db.Exec(`CREATE TABLE m AS
		SELECT * FROM train_nb((SELECT f0, f1, label FROM d))`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
		SELECT predict_confidence(m.model, d.f0, d.f1) AS conf FROM d, m`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.NumRows(); i++ {
		c := res.Column("conf").Get(i).Float64()
		if c < 0.5 || c > 1.0 {
			t.Fatalf("confidence %v out of [0.5, 1]", c)
		}
	}
}

func TestAllTrainers(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "d", 120)
	for _, call := range []string{
		"train_rf((SELECT f0, f1, label FROM d), 4)",
		"train_tree((SELECT f0, f1, label FROM d), 8)",
		"train_logreg((SELECT f0, f1, label FROM d), 100)",
		"train_nb((SELECT f0, f1, label FROM d))",
	} {
		tab, err := db.Query("SELECT algo FROM " + call)
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		if tab.NumRows() != 1 {
			t.Fatalf("%s: %d rows", call, tab.NumRows())
		}
	}
}

func TestWeightedLabel(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE p (id BIGINT, dem DOUBLE, rep DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO p VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, 80.0, 20.0)", i)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Query(`
		SELECT sum(CAST(weighted_label(id, dem, rep, 7) AS BIGINT)) AS ones, count(*) AS n FROM p`)
	if err != nil {
		t.Fatal(err)
	}
	ones := float64(tab.Column("ones").Get(0).Int64())
	n := float64(tab.Column("n").Get(0).Int64())
	// 20% expected class-1 rate; allow generous tolerance.
	rate := ones / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("class-1 rate %.3f, want ~0.20", rate)
	}
	// Deterministic: same seed, same labels.
	a, err := db.Query("SELECT weighted_label(id, dem, rep, 7) AS l FROM p ORDER BY id LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Query("SELECT weighted_label(id, dem, rep, 7) AS l FROM p ORDER BY id LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.Column("l").Get(i).Int64() != b.Column("l").Get(i).Int64() {
			t.Fatal("weighted_label not deterministic")
		}
	}
}

func TestParallelPredictMatchesSerial(t *testing.T) {
	db := OpenOptions(Options{TempDir: t.TempDir()})
	buildLabeled(t, db, "d", 500)
	if _, err := db.Exec(`CREATE TABLE m AS
		SELECT * FROM train_tree((SELECT f0, f1, label FROM d), 8)`); err != nil {
		t.Fatal(err)
	}
	q := "SELECT d.id AS id, predict(m.model, d.f0, d.f1) AS p FROM d, m ORDER BY id"
	if n := difftest.Matrix(t, q, 64<<10, at(db, q)).NumRows(); n != 500 {
		t.Fatalf("%d rows", n)
	}
}

func TestOpenDirRoundTrip(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "d", 50)
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumRows("d") != 50 {
		t.Fatalf("rows = %d", db2.NumRows("d"))
	}
	if !db2.HasTable("d") || db2.NumRows("zzz") != -1 {
		t.Fatal("table metadata helpers")
	}
}

func TestModelStoredBlobRoundTripsThroughDisk(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "d", 100)
	if _, err := db.Exec(`CREATE TABLE m AS
		SELECT * FROM train_rf((SELECT f0, f1, label FROM d), 4, 6, 1)`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(`
		SELECT count(*) AS n FROM d, m
		WHERE predict(m.model, d.f0, d.f1) = d.label`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Column("n").Get(0).Int64() < 95 {
		t.Fatalf("reloaded model accuracy too low: %v/100", res.Column("n").Get(0))
	}
}

func TestModelCacheEviction(t *testing.T) {
	c := newModelCache()
	// Fill beyond capacity with distinct blobs; each must still
	// deserialize correctly after eviction resets.
	db := Open()
	buildLabeled(t, db, "d", 60)
	var blobs [][]byte
	for i := 0; i < modelCacheMaxEntries+3; i++ {
		tab, err := db.Query(fmt.Sprintf(
			"SELECT model FROM train_tree((SELECT f0, f1, label FROM d), %d)", 1+i%6))
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, tab.Column("model").Get(0).Bytes())
	}
	for _, b := range blobs {
		if _, err := c.get(b); err != nil {
			t.Fatal(err)
		}
	}
	// Re-fetch: hits or clean re-deserialization, never an error.
	for _, b := range blobs {
		clf, err := c.get(b)
		if err != nil || clf == nil {
			t.Fatal(err)
		}
	}
	if _, err := c.get([]byte("not a model")); err == nil {
		t.Fatal("garbage blob must fail")
	}
}

func TestPredictErrors(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "d", 20)
	if _, err := db.Query("SELECT predict(f0) FROM d"); err == nil {
		t.Error("predict with one arg should fail")
	}
	if _, err := db.Query("SELECT predict(f0, f1) FROM d"); err == nil {
		t.Error("predict with non-blob model should fail")
	}
	if _, err := db.Query("SELECT * FROM train_rf((SELECT f0 FROM d))"); err == nil {
		t.Error("training with a single column should fail")
	}
	if _, err := db.Query("SELECT * FROM train_rf(5)"); err == nil {
		t.Error("training without a relation should fail")
	}
}

func TestQueryStreamRows(t *testing.T) {
	db := Open()
	buildLabeled(t, db, "pts", 5000)
	db.SetParallelism(4)

	// Row-at-a-time iteration matches the materialized result.
	want, err := db.Query("SELECT id, f0 FROM pts WHERE label = 1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryStream("SELECT id, f0 FROM pts WHERE label = 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 2 || got[0] != "id" || got[1] != "f0" {
		t.Fatalf("columns = %v", got)
	}
	n := 0
	for rows.Next() {
		if rows.Value(0).Int64() != want.Cols[0].Get(n).Int64() {
			t.Fatalf("row %d id mismatch", n)
		}
		n++
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if n != want.NumRows() {
		t.Fatalf("streamed %d rows, want %d", n, want.NumRows())
	}

	// Chunk-at-a-time after a partial row read returns the remainder.
	rows2, err := db.QueryStream("SELECT id FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	for i := 0; i < 3; i++ {
		if !rows2.Next() {
			t.Fatal("short result")
		}
	}
	total := 3
	for {
		tab, err := rows2.NextTable()
		if err != nil {
			t.Fatal(err)
		}
		if tab == nil {
			break
		}
		total += tab.NumRows()
	}
	if total != 5000 {
		t.Fatalf("row+chunk iteration covered %d rows, want 5000", total)
	}

	// Row-less statements report RowsAffected.
	aff, err := db.QueryStream("INSERT INTO pts VALUES (9999, 0, 0, 0)")
	if err != nil {
		t.Fatal(err)
	}
	defer aff.Close()
	if aff.HasRows() || aff.RowsAffected() != 1 {
		t.Fatalf("HasRows=%v affected=%d", aff.HasRows(), aff.RowsAffected())
	}

	// Early close stops the stream without error.
	early, err := db.QueryStream("SELECT id FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	if !early.Next() {
		t.Fatal("no first row")
	}
	if err := early.Close(); err != nil {
		t.Fatal(err)
	}
}

// Aggregates of a bare NULL used to leave the output column untyped
// and panic when the result was cast to the schema: the binder now
// types the argument as a DOUBLE NULL.
func TestAggregateOfBareNull(t *testing.T) {
	db := OpenOptions(Options{TempDir: t.TempDir()})
	if _, err := db.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT max(NULL) AS mx, min(NULL) AS mn, sum(NULL) AS s, avg(NULL) AS av, count(NULL) AS c, count(DISTINCT NULL) AS cd FROM t"
	tab := difftest.Matrix(t, q, 64<<10, at(db, q))
	for _, name := range []string{"mx", "mn", "s", "av"} {
		if col := tab.Column(name); tab.NumRows() != 1 || col.Type() != Float64 || !col.IsNull(0) {
			t.Fatalf("%s = %v %v, want one DOUBLE NULL", name, col.Type(), col.Get(0))
		}
	}
	if c, cd := tab.Column("c").Get(0).Int64(), tab.Column("cd").Get(0).Int64(); c != 0 || cd != 0 {
		t.Fatalf("count(NULL) = %d, count(DISTINCT NULL) = %d, want 0 and 0", c, cd)
	}
	q = "SELECT a, max(NULL) AS mx FROM t GROUP BY a"
	if grouped := difftest.Matrix(t, q, 64<<10, at(db, q)); grouped.NumRows() != 3 || !grouped.Column("mx").IsNull(2) {
		t.Fatalf("grouped max(NULL): %d rows", grouped.NumRows())
	}
}
