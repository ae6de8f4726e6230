package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"vexdb/internal/difftest"
	"vexdb/internal/vector"
)

// Differential tests: random datasets, SQL results compared against
// straightforward Go reference computations.

type randTable struct {
	keys []int64 // small domain so joins and groups collide
	vals []float64
}

func (r randTable) load(t *testing.T, db *DB, name string) {
	t.Helper()
	mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (k BIGINT, v DOUBLE)", name))
	batchInsert(t, db, name, len(r.keys), func(i int) string { return fmt.Sprintf("(%d, %g)", r.keys[i], r.vals[i]) })
}

// mkTable derives a bounded random table from quick's raw inputs.
func mkTable(rawKeys []uint8, rawVals []int16) randTable {
	n := len(rawKeys)
	if len(rawVals) < n {
		n = len(rawVals)
	}
	if n > 200 {
		n = 200
	}
	out := randTable{keys: make([]int64, n), vals: make([]float64, n)}
	for i := 0; i < n; i++ {
		out.keys[i] = int64(rawKeys[i] % 8) // 8 distinct keys
		out.vals[i] = float64(rawVals[i]) / 4
	}
	return out
}

func TestDifferentialFilterSum(t *testing.T) {
	f := func(rawKeys []uint8, rawVals []int16) bool {
		tab := mkTable(rawKeys, rawVals)
		db := New()
		tab.load(t, db, "t")
		res, err := db.Exec("SELECT count(*) AS n, sum(v) AS s FROM t WHERE v > 0")
		if err != nil {
			t.Log(err)
			return false
		}
		var wantN int64
		var wantS float64
		for i := range tab.keys {
			if tab.vals[i] > 0 {
				wantN++
				wantS += tab.vals[i]
			}
		}
		gotN := res.Table.Column("n").Get(0).Int64()
		if gotN != wantN {
			t.Logf("count: got %d want %d", gotN, wantN)
			return false
		}
		sv := res.Table.Column("s").Get(0)
		if wantN == 0 {
			return sv.IsNull()
		}
		return approxEqual(sv.Float64(), wantS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialGroupBy(t *testing.T) {
	f := func(rawKeys []uint8, rawVals []int16) bool {
		tab := mkTable(rawKeys, rawVals)
		if len(tab.keys) == 0 {
			return true
		}
		db := New()
		tab.load(t, db, "t")
		res, err := db.Exec("SELECT k, count(*) AS n, min(v) AS mn, max(v) AS mx FROM t GROUP BY k ORDER BY k")
		if err != nil {
			t.Log(err)
			return false
		}
		type agg struct {
			n      int64
			mn, mx float64
		}
		want := make(map[int64]*agg)
		for i, k := range tab.keys {
			a := want[k]
			if a == nil {
				a = &agg{mn: tab.vals[i], mx: tab.vals[i]}
				want[k] = a
			}
			a.n++
			if tab.vals[i] < a.mn {
				a.mn = tab.vals[i]
			}
			if tab.vals[i] > a.mx {
				a.mx = tab.vals[i]
			}
		}
		if res.Table.NumRows() != len(want) {
			t.Logf("groups: got %d want %d", res.Table.NumRows(), len(want))
			return false
		}
		for i := 0; i < res.Table.NumRows(); i++ {
			k := res.Table.Column("k").Get(i).Int64()
			a := want[k]
			if a == nil {
				return false
			}
			if res.Table.Column("n").Get(i).Int64() != a.n {
				return false
			}
			if !approxEqual(res.Table.Column("mn").Get(i).Float64(), a.mn) ||
				!approxEqual(res.Table.Column("mx").Get(i).Float64(), a.mx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialJoinCardinality(t *testing.T) {
	f := func(aKeys, bKeys []uint8) bool {
		a := mkTable(aKeys, make([]int16, len(aKeys)))
		b := mkTable(bKeys, make([]int16, len(bKeys)))
		db := New()
		a.load(t, db, "a")
		b.load(t, db, "b")
		res, err := db.Exec("SELECT count(*) AS n FROM a JOIN b ON a.k = b.k")
		if err != nil {
			t.Log(err)
			return false
		}
		var want int64
		for _, ak := range a.keys {
			for _, bk := range b.keys {
				if ak == bk {
					want++
				}
			}
		}
		if got := res.Table.Column("n").Get(0).Int64(); got != want {
			t.Logf("join count: got %d want %d", got, want)
			return false
		}
		// Left join: inner matches plus unmatched left rows.
		res, err = db.Exec("SELECT count(*) AS n FROM a LEFT JOIN b ON a.k = b.k")
		if err != nil {
			t.Log(err)
			return false
		}
		wantLeft := want
		for _, ak := range a.keys {
			matched := false
			for _, bk := range b.keys {
				if ak == bk {
					matched = true
					break
				}
			}
			if !matched {
				wantLeft++
			}
		}
		return res.Table.Column("n").Get(0).Int64() == wantLeft
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialOrderBy(t *testing.T) {
	f := func(rawKeys []uint8, rawVals []int16) bool {
		tab := mkTable(rawKeys, rawVals)
		if len(tab.keys) == 0 {
			return true
		}
		db := New()
		tab.load(t, db, "t")
		res, err := db.Exec("SELECT v FROM t ORDER BY v")
		if err != nil {
			t.Log(err)
			return false
		}
		col := res.Table.Column("v")
		for i := 1; i < col.Len(); i++ {
			if col.Float64s()[i-1] > col.Float64s()[i] {
				return false
			}
		}
		return col.Len() == len(tab.keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDifferentialDistinct(t *testing.T) {
	f := func(rawKeys []uint8) bool {
		tab := mkTable(rawKeys, make([]int16, len(rawKeys)))
		if len(tab.keys) == 0 {
			return true
		}
		db := New()
		tab.load(t, db, "t")
		res, err := db.Exec("SELECT DISTINCT k FROM t")
		if err != nil {
			t.Log(err)
			return false
		}
		want := make(map[int64]bool)
		for _, k := range tab.keys {
			want[k] = true
		}
		return res.Table.NumRows() == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------
// Parallel differential tests: every covered query shape returns the
// same bytes at every point of difftest.Matrix. The morsel exchange
// preserves row order, so the comparison is exact and positional.

// at is difftest.Matrix's run for q over db.
func at(db *DB, q string) func(difftest.Point) (*vector.Table, error) {
	return func(p difftest.Point) (*vector.Table, error) {
		tab, _, err := queryAt(db, p, q)
		return tab, err
	}
}

// queryAt runs q over db at p — its width, budget and planner setting,
// drained materialized or chunk by chunk — and returns the rows and the
// closed result set, whose counters stay readable. db's knobs are
// restored afterwards.
func queryAt(db *DB, p difftest.Point, q string) (*vector.Table, *ResultSet, error) {
	defer func(w int, b int64, off bool) { db.Parallelism, db.MemoryBudget, db.NoCostPlanner = w, b, off }(db.Parallelism, db.MemoryBudget, db.NoCostPlanner)
	db.Parallelism, db.MemoryBudget, db.NoCostPlanner = p.Width, p.Budget, !p.Planner
	rs, err := db.Query(q)
	if err != nil {
		return nil, nil, err
	}
	defer rs.Close()
	if !p.Streamed {
		tab, err := rs.Materialize()
		return tab, rs, err
	}
	tab, err := difftest.Collect(rs.Schema().Names(), rs.Schema().Types(), rs.Next)
	return tab, rs, err
}

// loadWide populates a table large enough to span several storage
// segments so morsel dispatch actually fans out.
func loadWide(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE w (k BIGINT, g INTEGER, v DOUBLE, s VARCHAR)")
	batchInsert(t, db, "w", rows, func(i int) string {
		return fmt.Sprintf("(%d, %d, %g, 's%d')", i%97, i%13, float64(i%31)-15.0, i%7)
	})
}

func TestDifferentialParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	queries := []string{
		// filter-heavy scans
		"SELECT k, v FROM w WHERE v > 0",
		"SELECT k, v FROM w WHERE v > 100",  // empty result
		"SELECT k, v FROM w WHERE v > -100", // all-true predicate
		"SELECT k + 1, v * 2 FROM w WHERE k % 3 = 0",
		// group-by (single int key fast path, multi-key, string key)
		"SELECT g, count(*) AS n, sum(v) AS s, min(v) AS mn, max(v) AS mx FROM w GROUP BY g",
		"SELECT k, g, count(*) AS n, avg(v) AS m FROM w GROUP BY k, g",
		"SELECT s, count(*) AS n FROM w GROUP BY s",
		"SELECT count(*) AS n, sum(k) AS s FROM w",              // global agg
		"SELECT g, count(*) AS n FROM w WHERE v > 0 GROUP BY g", // agg over filter
		// joins (int fast path and parallel probe)
		"SELECT count(*) AS n FROM w a JOIN w b ON a.k = b.k",
		"SELECT a.k, b.g FROM w a JOIN w b ON a.k = b.k WHERE a.v > 10",
		"SELECT a.k, b.v FROM w a LEFT JOIN w b ON a.k = b.k AND b.v > 12",
		// distinct
		"SELECT DISTINCT g FROM w",
		"SELECT DISTINCT k, g FROM w",
		// sort and limit over parallel children
		"SELECT k, v FROM w WHERE v > 0 ORDER BY k, v LIMIT 50",
		// LIMIT over DISTINCT, and UNION's dedup under ORDER BY and LIMIT
		"SELECT DISTINCT g FROM w LIMIT 3",
		"SELECT g, s FROM (SELECT g, s FROM w WHERE v > 0 UNION SELECT g, s FROM w WHERE k < 10) u ORDER BY g DESC, s LIMIT 7",
	}
	db := New()
	db.TempDir = t.TempDir()
	loadWide(t, db, 10_000)
	for _, q := range queries {
		difftest.Matrix(t, q, 64<<10, at(db, q))
	}
}

func TestDifferentialParallelRandomized(t *testing.T) {
	f := func(rawKeys []uint8, rawVals []int16) bool {
		tab := mkTable(rawKeys, rawVals)
		db := New()
		db.TempDir = t.TempDir()
		tab.load(t, db, "t")
		for _, q := range []string{
			"SELECT k, count(*) AS n, sum(v) AS s FROM t GROUP BY k",
			"SELECT count(*) AS n FROM t a JOIN t b ON a.k = b.k",
			"SELECT DISTINCT k FROM t",
			"SELECT k, v FROM t WHERE v > 0",
		} {
			difftest.Matrix(t, q, 64<<10, at(db, q))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if -a > scale {
		scale = -a
	}
	return d <= 1e-9*scale
}

func TestLeftJoinResidualPadding(t *testing.T) {
	db := newTestDB(t)
	// Every user joins orders but the residual rejects some matches
	// entirely; those users must surface null-padded.
	tab := mustQuery(t, db, `
		SELECT u.id, o.amount FROM users u
		LEFT JOIN orders o ON u.id = o.user_id AND o.amount > 100
		ORDER BY u.id`)
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5 (all users, no matches survive)", tab.NumRows())
	}
	for i := 0; i < tab.NumRows(); i++ {
		if !tab.Column("amount").IsNull(i) {
			t.Fatal("residual-rejected matches must pad with NULL")
		}
	}
}

func TestUnionTypeCasting(t *testing.T) {
	db := newTestDB(t)
	// First arm DOUBLE, second arm BIGINT: the union casts to DOUBLE.
	tab := mustQuery(t, db, "SELECT score FROM users WHERE id = 1 UNION ALL SELECT id FROM users WHERE id = 2")
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Cols[0].Get(1).Float64() != 2 {
		t.Fatalf("cast row = %v", tab.Cols[0].Get(1))
	}
}

func TestScalarUDFInsideWhere(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT id FROM users WHERE sqrt(CAST(id AS DOUBLE) * CAST(id AS DOUBLE)) > 3")
	if tab.NumRows() != 2 { // ids 4, 5
		t.Fatalf("rows = %d", tab.NumRows())
	}
}
