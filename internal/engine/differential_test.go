package engine

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

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
	if len(r.keys) == 0 {
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
	for i := range r.keys {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %g)", r.keys[i], r.vals[i])
	}
	mustExec(t, db, sb.String())
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
// Parallel differential tests: every covered query shape must produce
// results identical to serial execution at any worker count. The
// morsel exchange preserves row order, so the comparison is exact and
// positional; if a future exchange relaxes ordering, these tests must
// switch to comparing sorted row renderings instead.

// parallelWorkerCounts are the parallelism levels differential tests
// compare against serial execution.
var parallelWorkerCounts = []int{1, 2, 8}

// loadWide populates a table large enough to span several storage
// segments so morsel dispatch actually fans out.
func loadWide(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE w (k BIGINT, g INTEGER, v DOUBLE, s VARCHAR)")
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			if sb.Len() > 0 {
				mustExec(t, db, sb.String())
				sb.Reset()
			}
			sb.WriteString("INSERT INTO w VALUES ")
		} else {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %d, %g, 's%d')", i%97, i%13, float64(i%31)-15.0, i%7)
	}
	if sb.Len() > 0 {
		mustExec(t, db, sb.String())
	}
}

// renderTable flattens a result into printable rows for comparison.
func renderTable(t *testing.T, tab *vector.Table) []string {
	t.Helper()
	rows := make([]string, tab.NumRows())
	for i := range rows {
		var sb strings.Builder
		for c := 0; c < tab.NumCols(); c++ {
			sb.WriteString(tab.Cols[c].Get(i).String())
			sb.WriteString("|")
		}
		rows[i] = sb.String()
	}
	return rows
}

func TestDifferentialParallelMatchesSerial(t *testing.T) {
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
	db.Parallelism = 1
	loadWide(t, db, 10_000)
	for _, q := range queries {
		serial, err := db.Exec(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want := renderTable(t, serial.Table)
		for _, workers := range parallelWorkerCounts {
			db.Parallelism = workers
			got, err := db.Exec(q)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", workers, q, err)
			}
			rows := renderTable(t, got.Table)
			if len(rows) != len(want) {
				t.Fatalf("workers=%d %q: %d rows, serial %d", workers, q, len(rows), len(want))
			}
			for i := range rows {
				if rows[i] != want[i] {
					t.Fatalf("workers=%d %q row %d:\n  got  %s\n  want %s", workers, q, i, rows[i], want[i])
				}
			}
		}
		db.Parallelism = 1
	}
}

func TestDifferentialParallelRandomized(t *testing.T) {
	f := func(rawKeys []uint8, rawVals []int16) bool {
		tab := mkTable(rawKeys, rawVals)
		db := New()
		tab.load(t, db, "t")
		queries := []string{
			"SELECT k, count(*) AS n, sum(v) AS s FROM t GROUP BY k",
			"SELECT count(*) AS n FROM t a JOIN t b ON a.k = b.k",
			"SELECT DISTINCT k FROM t",
			"SELECT k, v FROM t WHERE v > 0",
		}
		for _, q := range queries {
			db.Parallelism = 1
			serial, err := db.Exec(q)
			if err != nil {
				t.Log(err)
				return false
			}
			want := renderTable(t, serial.Table)
			for _, workers := range parallelWorkerCounts[1:] {
				db.Parallelism = workers
				got, err := db.Exec(q)
				if err != nil {
					t.Log(err)
					return false
				}
				rows := renderTable(t, got.Table)
				if len(rows) != len(want) {
					t.Logf("workers=%d %q: %d rows, serial %d", workers, q, len(rows), len(want))
					return false
				}
				for i := range rows {
					if rows[i] != want[i] {
						t.Logf("workers=%d %q row %d: got %s want %s", workers, q, i, rows[i], want[i])
						return false
					}
				}
			}
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
