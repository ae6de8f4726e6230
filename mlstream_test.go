package vexdb

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/vector"
	"vexdb/ml"
)

// mlStreamData builds n rows of deterministic synthetic voter-style
// data. f1 carries NaN at every 97th row and f2 is SQL NULL (with a
// NaN payload underneath) at every 131st row, so every test below
// exercises the missing-value paths the tree/NB/logreg models define
// semantics for.
func mlStreamData(n int) (id []int64, f0, f1, f2 []float64, label []int32) {
	id = make([]int64, n)
	f0 = make([]float64, n)
	f1 = make([]float64, n)
	f2 = make([]float64, n)
	label = make([]int32, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		id[i] = int64(i)
		f0[i] = next()*10 - 5
		f1[i] = next()*4 - 2
		f2[i] = next()
		switch {
		case f0[i]+f1[i] > 1.5:
			label[i] = 2
		case f0[i] > 0:
			label[i] = 1
		}
		if i%97 == 0 {
			f1[i] = math.NaN()
		}
		if i%131 == 0 {
			f2[i] = math.NaN()
		}
	}
	return
}

// newMLStreamDB creates a database with a "pts" table of n rows and a
// single-row "m" table holding a decision tree trained on the first
// min(n, 2000) rows.
func newMLStreamDB(t testing.TB, n int) *DB {
	t.Helper()
	db := OpenOptions(Options{TempDir: t.TempDir()})
	id, f0, f1, f2, label := mlStreamData(n)
	vf2 := NewVectorFloat64(f2)
	for i := 0; i < n; i += 131 {
		vf2.SetNull(i)
	}
	tab, err := NewTable(
		[]string{"id", "f0", "f1", "f2", "label"},
		[]*Vector{NewVectorInt64(id), NewVectorFloat64(f0), NewVectorFloat64(f1), vf2, NewVectorInt32(label)},
	)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := db.CreateTableFrom("pts", tab); err != nil {
		t.Fatalf("CreateTableFrom: %v", err)
	}
	trainN := n
	if trainN > 2000 {
		trainN = 2000
	}
	stmt := fmt.Sprintf(
		`CREATE TABLE m AS SELECT model FROM train_tree((SELECT f0, f1, f2, label FROM pts WHERE id < %d), 8)`, trainN)
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("train model: %v", err)
	}
	return db
}

// registerSerialPredict installs predict_serial: a non-Parallel UDF
// reproducing the pre-streaming prediction path — fresh deserialization
// on every call, the whole input scored by one ml.Predict. Because it
// is not marked Parallel, mlProjectOp takes its input whole before the
// one evaluation, giving the differential baseline for the streamed
// path.
func registerSerialPredict(t testing.TB, db *DB) {
	t.Helper()
	err := db.RegisterScalar(&ScalarFunc{
		Name:       "predict_serial",
		Arity:      -1,
		ReturnType: FixedReturn(Int32),
		Parallel:   false,
		Eval: func(args []*Vector) (*Vector, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("predict_serial: requires (model, feature...)")
			}
			blob := args[0].Blobs()[0]
			// Copy the blob so the model cache's pointer-identity ring
			// cannot serve this call: this path must deserialize.
			clf, err := ml.Unmarshal(append([]byte(nil), blob...))
			if err != nil {
				return nil, err
			}
			X := make([][]float64, len(args)-1)
			for i, a := range args[1:] {
				col, err := a.AsFloat64s()
				if err != nil {
					return nil, err
				}
				X[i] = col
			}
			y, err := ml.Predict(clf, X)
			if err != nil {
				return nil, err
			}
			out := make([]int32, len(y))
			for i, v := range y {
				out[i] = int32(v)
			}
			return NewVectorInt32(out), nil
		},
	})
	if err != nil {
		t.Fatalf("RegisterScalar: %v", err)
	}
}

func queryInt32Col(t *testing.T, db *Session, sql string) []int32 {
	t.Helper()
	tab, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	col, err := tab.Cols[0].AsInt32s()
	if err != nil {
		t.Fatalf("column of %q: %v", sql, err)
	}
	return col
}

// TestStreamedPredictMatchesDrained is the tentpole differential: the
// streaming vectorized predict must be byte-identical (labels exact,
// confidences bit-equal) to the drained, freshly-deserializing serial
// path, at every point of difftest.Matrix, over data with NaN and NULL
// features.
func TestStreamedPredictMatchesDrained(t *testing.T) {
	db := newMLStreamDB(t, 20000)
	registerSerialPredict(t, db)

	serial, err := db.Query(`SELECT predict_serial(model, f0, f1, f2) AS label FROM pts, m`)
	if err != nil || serial.NumRows() != 20000 {
		t.Fatalf("baseline: %v", err)
	}
	const q = `SELECT predict(model, f0, f1, f2) AS label FROM pts, m`
	if d := difftest.Diff(difftest.Matrix(t, q, 64<<10, at(db, q)), serial); d != "" {
		t.Fatalf("streamed labels differ from the serial path's: %s", d)
	}
	const qc = `SELECT predict_confidence(model, f0, f1, f2) FROM pts, m`
	difftest.Matrix(t, qc, 64<<10, at(db, qc))
}

// TestStreamedPredictChunkInvariant asserts the streamed path emits
// standard-sized chunks on the wire: every chunk a consumer observes
// has between 1 and DefaultChunkSize rows, and the total row count is
// exact even when the input is not a chunk-size multiple.
func TestStreamedPredictChunkInvariant(t *testing.T) {
	n := 3*vector.DefaultChunkSize + 5
	db := newMLStreamDB(t, n)
	rows, err := db.QueryStream(`SELECT predict(model, f0, f1, f2) FROM pts, m`)
	if err != nil {
		t.Fatalf("QueryStream: %v", err)
	}
	defer rows.Close()
	total, nchunks := 0, 0
	for {
		tab, err := rows.NextTable()
		if err != nil {
			t.Fatalf("NextTable: %v", err)
		}
		if tab == nil {
			break
		}
		r := tab.NumRows()
		if r < 1 || r > vector.DefaultChunkSize {
			t.Fatalf("chunk %d has %d rows, want 1..%d", nchunks, r, vector.DefaultChunkSize)
		}
		total += r
		nchunks++
	}
	if total != n {
		t.Fatalf("streamed %d rows, want %d", total, n)
	}
	if nchunks < 4 {
		t.Fatalf("expected >= 4 chunks for %d rows, got %d", n, nchunks)
	}
}

// evalProbe records, race-safely, how many rows each Eval call of a
// pass-through UDF observes.
type evalProbe struct {
	mu      sync.Mutex
	calls   int
	maxRows int
	total   int64
}

func (p *evalProbe) observe(n int) {
	p.mu.Lock()
	p.calls++
	if n > p.maxRows {
		p.maxRows = n
	}
	p.total += int64(n)
	p.mu.Unlock()
}

func (p *evalProbe) reset() {
	p.mu.Lock()
	p.calls, p.maxRows, p.total = 0, 0, 0
	p.mu.Unlock()
}

func (p *evalProbe) snapshot() (calls, maxRows int, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls, p.maxRows, p.total
}

func registerProbe(t *testing.T, db *DB, name string, typ Type, probe *evalProbe) {
	t.Helper()
	err := db.RegisterScalar(&ScalarFunc{
		Name:       name,
		Arity:      1,
		ReturnType: FixedReturn(typ),
		Parallel:   true,
		Eval: func(args []*Vector) (*Vector, error) {
			probe.observe(args[0].Len())
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatalf("RegisterScalar(%s): %v", name, err)
	}
}

// TestStreamedPredictBoundedEvals is the O(chunk) proof: wrapping
// predict in a counting pass-through shows no single UDF invocation
// ever sees more than DefaultChunkSize rows, at any parallelism. The
// drained path this replaced handed the entire 200k-row input (divided
// only by the worker count) to one call.
func TestStreamedPredictBoundedEvals(t *testing.T) {
	const n = 200000
	db := newMLStreamDB(t, n)
	probe := &evalProbe{}
	registerProbe(t, db, "probe_tap", Int32, probe)

	for _, w := range []int{1, 8} {
		probe.reset()
		got := queryInt32Col(t, withWorkers(t, db, w), `SELECT probe_tap(predict(model, f0, f1, f2)) FROM pts, m`)
		if len(got) != n {
			t.Fatalf("workers=%d: rows = %d, want %d", w, len(got), n)
		}
		calls, maxRows, total := probe.snapshot()
		if total != int64(n) {
			t.Fatalf("workers=%d: probe saw %d rows, want %d", w, total, n)
		}
		if maxRows > vector.DefaultChunkSize {
			t.Fatalf("workers=%d: one eval saw %d rows, O(chunk) bound is %d (calls=%d)",
				w, maxRows, vector.DefaultChunkSize, calls)
		}
	}
}

// TestStreamedPredictLimitEarlyExit asserts LIMIT stops the scan
// early: only a bounded prefix of the input is ever scored.
func TestStreamedPredictLimitEarlyExit(t *testing.T) {
	const n = 200000
	db := newMLStreamDB(t, n)
	probe := &evalProbe{}
	registerProbe(t, db, "probe_tap", Int32, probe)
	pass := &evalProbe{}
	registerProbe(t, db, "probe_pass", Float64, pass)

	// Serial streaming path (join above the scan): LIMIT pulls whole
	// chunks one at a time, so at most a few chunks are scored.
	got := queryInt32Col(t, withWorkers(t, db, 1), `SELECT probe_tap(predict(model, f0, f1, f2)) FROM pts, m LIMIT 10`)
	if len(got) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(got))
	}
	_, _, total := probe.snapshot()
	if total > 3*int64(vector.DefaultChunkSize) {
		t.Fatalf("serial LIMIT 10 scored %d rows, want <= %d", total, 3*vector.DefaultChunkSize)
	}

	// Morsel-parallel path (UDF directly over the base scan): the
	// ordered driver's run-ahead window bounds wasted work, so far
	// fewer rows than the input are evaluated before the abort.
	if gotF, err := withWorkers(t, db, 8).Query(`SELECT probe_pass(f0) FROM pts LIMIT 10`); err != nil || gotF.NumRows() != 10 {
		t.Fatalf("parallel LIMIT 10: %v", err)
	}
	_, _, ptotal := pass.snapshot()
	if ptotal > int64(n)/2 {
		t.Fatalf("parallel LIMIT 10 scored %d of %d rows; early exit not engaged", ptotal, n)
	}
}

// TestStreamedPredictUnderMemoryBudget runs PREDICT over 200k rows
// with a 4MB memory budget. The streamed operator holds O(chunk)
// state, so the query must complete without any out-of-core spilling
// and produce the same answer as the unbudgeted run.
func TestStreamedPredictUnderMemoryBudget(t *testing.T) {
	const n = 200000
	db := newMLStreamDB(t, n)

	baseline := queryInt32Col(t, db.Session(), `SELECT predict(model, f0, f1, f2) FROM pts, m`)
	var wantSum int64
	for _, v := range baseline {
		wantSum += int64(v)
	}

	s := db.Session()
	if _, err := s.Exec("SET memory_budget = 4194304"); err != nil {
		t.Fatal(err)
	}
	rows, err := s.QueryStream(`SELECT predict(model, f0, f1, f2) FROM pts, m`)
	if err != nil {
		t.Fatalf("QueryStream: %v", err)
	}
	defer rows.Close()
	var sum int64
	count := 0
	for rows.Next() {
		sum += rows.Value(0).Int64()
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	parts, runs, wr, rd := rows.SpillStats()
	if parts != 0 || runs != 0 || wr != 0 || rd != 0 {
		t.Fatalf("streamed PREDICT spilled under 4MB budget: partitions=%d runs=%d written=%d read=%d",
			parts, runs, wr, rd)
	}
	if count != n || sum != wantSum {
		t.Fatalf("budgeted run: count=%d sum=%d, want count=%d sum=%d", count, sum, n, wantSum)
	}
}

// TestTrainDeterminismAcrossParallelism trains each model through SQL
// at every point of difftest.Matrix — over pts, whose f1 carries NaNs
// and f2 NULLs — and requires the serialized blobs to be byte-identical
// (morsel partials and per-tree seeds are defined by absolute position,
// not worker layout) and the stored model to score every row of pts.
func TestTrainDeterminismAcrossParallelism(t *testing.T) {
	const n = 6000
	db := newMLStreamDB(t, n)
	cases := []struct {
		name string
		sql  string
	}{
		{"train_rf", `SELECT model FROM train_rf((SELECT f0, f1, f2, label FROM pts), 8, 6, 42)`},
		{"train_tree", `SELECT model FROM train_tree((SELECT f0, f1, f2, label FROM pts), 6)`},
		{"train_nb", `SELECT model FROM train_nb((SELECT f0, f1, f2, label FROM pts))`},
		{"train_logreg", `SELECT model FROM train_logreg((SELECT f0, f1, f2, label FROM pts), 60)`},
	}
	for _, tc := range cases {
		if tab := difftest.Matrix(t, tc.sql, 64<<10, at(db, tc.sql)); tab.NumRows() != 1 || len(tab.Cols[0].Blobs()[0]) == 0 {
			t.Fatalf("%s: %d rows, want one model", tc.name, tab.NumRows())
		}
		if _, err := db.Exec(fmt.Sprintf(`CREATE TABLE %s_m AS %s`, tc.name, tc.sql)); err != nil {
			t.Fatalf("%s: store model: %v", tc.name, err)
		}
		scored, err := db.Query(fmt.Sprintf(
			`SELECT count(*) AS n FROM (SELECT predict(m.model, p.f0, p.f1, p.f2) AS pred FROM pts p, %s_m m) q WHERE q.pred >= 0`, tc.name))
		if err != nil {
			t.Fatalf("%s: predict: %v", tc.name, err)
		}
		if got := scored.Cols[0].Int64s()[0]; got != n {
			t.Fatalf("%s: scored %d of %d rows", tc.name, got, n)
		}
	}
}

// TestTrainedModelDigests pins the SHA-256 of the models train_tree,
// train_nb and train_logreg store at workers 1, 2 and 8. The digests
// were captured before each model kept a single fit, so a change to
// any fit's arithmetic or to the model format fails here.
func TestTrainedModelDigests(t *testing.T) {
	db := newMLStreamDB(t, 6000)
	cases := []struct{ sql, sha256 string }{
		{`SELECT model FROM train_tree((SELECT f0, f1, f2, label FROM pts), 6)`,
			"f19382c744d737dde1cf5ea94c43606a1b665434e13faf63e60192327401bdc2"},
		{`SELECT model FROM train_nb((SELECT f0, f1, f2, label FROM pts))`,
			"443cddf085a43082a38dd03632a36df579f44b8d8b0c082cc355c61d46fd533f"},
		{`SELECT model FROM train_logreg((SELECT f0, f1, f2, label FROM pts), 60)`,
			"5031eb7b6749c674945d28587dd12ac7da06afee28e844aa4f22a9cb329f0781"},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2, 8} {
			tab, err := withWorkers(t, db, w).Query(tc.sql)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.sql, w, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(tab.Cols[0].Blobs()[0])); got != tc.sha256 {
				t.Errorf("%s workers=%d: sha256 %s, want %s", tc.sql, w, got, tc.sha256)
			}
		}
	}
}

// TestPredictPopulatesModelCache asserts all predict variants route
// through the digest-verified model cache: after a predict query the
// cache holds the model, and predict_confidence adds no second entry
// for the same blob.
func TestPredictPopulatesModelCache(t *testing.T) {
	db := newMLStreamDB(t, 500)
	if _, err := db.Query(`SELECT predict(model, f0, f1, f2) FROM pts, m`); err != nil {
		t.Fatalf("predict: %v", err)
	}
	db.modelCache.mu.Lock()
	after := len(db.modelCache.entries)
	db.modelCache.mu.Unlock()
	if after != 1 {
		t.Fatalf("cache entries after predict = %d, want 1", after)
	}
	if _, err := db.Query(`SELECT predict_confidence(model, f0, f1, f2) FROM pts, m`); err != nil {
		t.Fatalf("predict_confidence: %v", err)
	}
	db.modelCache.mu.Lock()
	final := len(db.modelCache.entries)
	db.modelCache.mu.Unlock()
	if final != 1 {
		t.Fatalf("cache entries after all predict variants = %d, want 1 (shared cache)", final)
	}
}
