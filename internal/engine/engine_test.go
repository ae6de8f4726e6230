package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vexdb/internal/core"
	"vexdb/internal/difftest"
	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE users (id BIGINT, name VARCHAR, age INTEGER, score DOUBLE)")
	mustExec(t, db, `INSERT INTO users VALUES
		(1, 'alice', 30, 9.5),
		(2, 'bob', 25, 7.25),
		(3, 'carol', 35, 8.0),
		(4, 'dave', 25, NULL),
		(5, 'erin', NULL, 5.5)`)
	mustExec(t, db, "CREATE TABLE orders (user_id BIGINT, amount DOUBLE, item VARCHAR)")
	mustExec(t, db, `INSERT INTO orders VALUES
		(1, 10.0, 'book'), (1, 20.0, 'pen'), (2, 5.0, 'book'), (3, 50.0, 'desk'), (9, 1.0, 'ghost')`)
	return db
}

func mustExec(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, q string) *vector.Table {
	t.Helper()
	return mustQueryIn(t, db, db.defaults(), q)
}

func TestSelectProjection(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT name, age * 2 AS dbl FROM users WHERE id = 3")
	if tab.NumRows() != 1 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Column("name").Get(0).Str() != "carol" {
		t.Fatal("name wrong")
	}
	if tab.Column("dbl").Get(0).Int64() != 70 {
		t.Fatalf("dbl = %v", tab.Column("dbl").Get(0))
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT * FROM users")
	if tab.NumCols() != 4 || tab.NumRows() != 5 {
		t.Fatalf("dims %dx%d", tab.NumCols(), tab.NumRows())
	}
}

func TestWhereNullSemantics(t *testing.T) {
	db := newTestDB(t)
	// age = 25 must not match the NULL-age row.
	tab := mustQuery(t, db, "SELECT id FROM users WHERE age = 25 ORDER BY id")
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	tab = mustQuery(t, db, "SELECT id FROM users WHERE age IS NULL")
	if tab.NumRows() != 1 || tab.Column("id").Get(0).Int64() != 5 {
		t.Fatal("IS NULL wrong")
	}
	tab = mustQuery(t, db, "SELECT id FROM users WHERE score IS NOT NULL")
	if tab.NumRows() != 4 {
		t.Fatalf("IS NOT NULL rows = %d", tab.NumRows())
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT id FROM users ORDER BY score DESC LIMIT 2")
	// NULLs sort last ascending, first descending: dave (NULL score)
	// leads, then alice (9.5).
	if tab.Column("id").Get(0).Int64() != 4 || tab.Column("id").Get(1).Int64() != 1 {
		t.Fatalf("order: %v,%v", tab.Column("id").Get(0), tab.Column("id").Get(1))
	}
	tab = mustQuery(t, db, "SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 2")
	if tab.NumRows() != 2 || tab.Column("id").Get(0).Int64() != 3 {
		t.Fatal("limit/offset wrong")
	}
	// Positional ORDER BY.
	tab = mustQuery(t, db, "SELECT id, age FROM users WHERE age IS NOT NULL ORDER BY 2 DESC, 1 ASC")
	if tab.Column("id").Get(0).Int64() != 3 {
		t.Fatal("positional order by")
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT age, count(*) AS n, avg(score) AS avgs, min(name) AS mn
		FROM users GROUP BY age ORDER BY n DESC, age ASC`)
	// ages: 25 (bob, dave), 30 (alice), 35 (carol), NULL (erin)
	if tab.NumRows() != 4 {
		t.Fatalf("groups = %d", tab.NumRows())
	}
	if tab.Column("age").Get(0).Int64() != 25 || tab.Column("n").Get(0).Int64() != 2 {
		t.Fatalf("first group wrong: %v n=%v", tab.Column("age").Get(0), tab.Column("n").Get(0))
	}
	// avg over (7.25, NULL) = 7.25 — aggregates skip NULLs.
	if tab.Column("avgs").Get(0).Float64() != 7.25 {
		t.Fatalf("avg = %v", tab.Column("avgs").Get(0))
	}
	if tab.Column("mn").Get(0).Str() != "bob" {
		t.Fatal("min(name)")
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT count(*) AS n, sum(age) AS s FROM users WHERE id > 100")
	if tab.NumRows() != 1 {
		t.Fatal("global agg must yield one row")
	}
	if tab.Column("n").Get(0).Int64() != 0 {
		t.Fatal("count = 0")
	}
	if !tab.Column("s").Get(0).IsNull() {
		t.Fatal("sum of empty = NULL")
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT user_id, sum(amount) AS total FROM orders
		GROUP BY user_id HAVING sum(amount) > 10 ORDER BY total DESC`)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Column("user_id").Get(0).Int64() != 3 || tab.Column("total").Get(0).Float64() != 50 {
		t.Fatal("having wrong")
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT count(DISTINCT item) AS n FROM orders")
	if tab.Column("n").Get(0).Int64() != 4 {
		t.Fatalf("distinct items = %v", tab.Column("n").Get(0))
	}
}

func TestInnerJoin(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT u.name, o.amount FROM users u
		JOIN orders o ON u.id = o.user_id
		ORDER BY o.amount DESC`)
	if tab.NumRows() != 4 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Column("name").Get(0).Str() != "carol" {
		t.Fatal("top joined row wrong")
	}
}

func TestLeftJoin(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT u.id, o.amount FROM users u
		LEFT JOIN orders o ON u.id = o.user_id
		ORDER BY u.id, o.amount`)
	// alice 2 orders + bob 1 + carol 1 + dave/erin null-padded = 6.
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	last := tab.Column("amount").Get(tab.NumRows() - 1)
	if !last.IsNull() {
		t.Fatal("unmatched rows must have NULL right columns")
	}
}

func TestJoinWithResidual(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT u.name, o.amount FROM users u
		JOIN orders o ON u.id = o.user_id AND o.amount > 10
		ORDER BY o.amount`)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

func TestCrossJoin(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT count(*) AS n FROM users, orders")
	if tab.Column("n").Get(0).Int64() != 25 {
		t.Fatalf("cross join count = %v", tab.Column("n").Get(0))
	}
}

func TestGroupByJoinAggregate(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT u.name, count(*) AS n, sum(o.amount) AS total
		FROM users u JOIN orders o ON u.id = o.user_id
		GROUP BY u.name ORDER BY total DESC`)
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if tab.Column("name").Get(1).Str() != "alice" || tab.Column("total").Get(1).Float64() != 30 {
		t.Fatal("alice total wrong")
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT big.name FROM (SELECT name, score FROM users WHERE score > 7) AS big
		ORDER BY big.score DESC`)
	if tab.NumRows() != 3 || tab.Column("name").Get(0).Str() != "alice" {
		t.Fatal("subquery wrong")
	}
}

func TestCaseExpression(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT name, CASE WHEN age >= 30 THEN 'old' WHEN age IS NULL THEN 'unknown' ELSE 'young' END AS bucket
		FROM users ORDER BY id`)
	want := []string{"old", "young", "old", "young", "unknown"}
	for i, w := range want {
		if got := tab.Column("bucket").Get(i).Str(); got != w {
			t.Errorf("row %d: %q, want %q", i, got, w)
		}
	}
}

func TestCastDivisionModulo(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT 7 / 2 AS d, 7 % 2 AS m, CAST(7.9 AS INTEGER) AS c")
	if tab.Column("d").Get(0).Float64() != 3.5 {
		t.Fatalf("7/2 = %v (division is DOUBLE)", tab.Column("d").Get(0))
	}
	if tab.Column("m").Get(0).Int64() != 1 {
		t.Fatal("modulo")
	}
	if tab.Column("c").Get(0).Int64() != 7 {
		t.Fatal("cast")
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT 1 / 0 AS x, 1 % 0 AS y")
	if !tab.Column("x").Get(0).IsNull() || !tab.Column("y").Get(0).IsNull() {
		t.Fatal("division by zero must be NULL")
	}
}

func TestBuiltinFunctions(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT sqrt(16.0) AS s, upper(name) AS u, length(name) AS l FROM users WHERE id = 1")
	if tab.Column("s").Get(0).Float64() != 4 {
		t.Fatal("sqrt")
	}
	if tab.Column("u").Get(0).Str() != "ALICE" || tab.Column("l").Get(0).Int64() != 5 {
		t.Fatal("string funcs")
	}
}

// TestCoalesceMixedTypes: coalesce returns its arguments' common numeric
// type, each chosen value cast to it, and refuses at bind a mix no cast
// reconciles. A bare NULL argument takes the type of the others.
func TestCoalesceMixedTypes(t *testing.T) {
	db := newTestDB(t)
	for _, c := range []struct {
		query string
		want  vector.Value
	}{
		{"SELECT coalesce(CAST(NULL AS INTEGER), 2.5) AS c", vector.NewFloat64(2.5)},
		{"SELECT coalesce(CAST(NULL AS INTEGER), CAST(7000000000 AS BIGINT)) AS c", vector.NewInt64(7000000000)},
		{"SELECT coalesce(age, score) AS c FROM users WHERE id = 1", vector.NewFloat64(30)},
		{"SELECT coalesce(score, age) AS c FROM users WHERE id = 4", vector.NewFloat64(25)},
		{"SELECT coalesce(name, NULL) AS c FROM users WHERE id = 1", vector.NewString("alice")},
		{"SELECT coalesce(age, NULL) AS c FROM users WHERE id = 1", vector.NewInt32(30)},
		{"SELECT coalesce(NULL, 'a') AS c", vector.NewString("a")},
		{"SELECT coalesce(NULL, age) AS c FROM users WHERE id = 2", vector.NewInt32(25)},
	} {
		got := mustQuery(t, db, c.query).Cols[0]
		if d, err := got.Get(0).Compare(c.want); got.Type() != c.want.Type() || err != nil || d != 0 {
			t.Errorf("%q = %v (%s), want %v (%s)", c.query, got.Get(0), got.Type(), c.want, c.want.Type())
		}
	}
	const mixed = "SELECT coalesce(name, age) AS c FROM users"
	if _, err := db.Exec(mixed); err == nil || !strings.Contains(err.Error(), "no common type") {
		t.Fatalf("%q: %v, want a bind error", mixed, err)
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT DISTINCT age FROM users ORDER BY age")
	if tab.NumRows() != 4 { // 25, 30, 35, NULL
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

// TestUntypedNullSelectList: a bare NULL in a select list is a VARCHAR
// column of NULLs — through a projection, an aggregate, DISTINCT, UNION,
// ORDER BY and CREATE TABLE AS, at every point of difftest.Matrix — not
// an untyped vector the executor cannot build.
func TestUntypedNullSelectList(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE t (a BIGINT)")
	mustExec(t, db, "INSERT INTO t VALUES (3), (1), (2)")
	const ctas = "CREATE TABLE u AS SELECT NULL AS x FROM t"
	for _, c := range []struct {
		query     string
		rows, col int // the NULL column
	}{
		{"SELECT NULL", 1, 0},
		{"SELECT a, NULL FROM t", 3, 1},
		{"SELECT NULL FROM t UNION SELECT NULL FROM t", 1, 0},
		{"SELECT DISTINCT NULL FROM t", 1, 0},
		{"SELECT NULL FROM t ORDER BY a", 3, 0},
		{"SELECT count(*), NULL FROM t", 1, 1},
		{ctas, 3, 0},
	} {
		run := at(db, c.query)
		if c.query == ctas {
			run = func(p difftest.Point) (*vector.Table, error) {
				u := fmt.Sprintf("u%d_%d_%t_%t", p.Width, p.Budget, p.Planner, p.Streamed)
				if _, _, err := queryAt(db, p, strings.Replace(ctas, " u ", " "+u+" ", 1)); err != nil {
					return nil, err
				}
				tab, err := at(db, "SELECT x FROM "+u)(p)
				if err == nil {
					_, err = db.Exec("DROP TABLE " + u)
				}
				return tab, err
			}
		}
		tab := difftest.Matrix(t, c.query, 64<<10, run)
		v := tab.Cols[c.col]
		if tab.NumRows() != c.rows || v.Type() != vector.String {
			t.Fatalf("%q: %d rows of %s, want %d of VARCHAR", c.query, tab.NumRows(), v.Type(), c.rows)
		}
		for i := range v.Len() {
			if !v.IsNull(i) {
				t.Fatalf("%q: row %d is %v", c.query, i, v.Get(i))
			}
		}
	}
}

// TestFalseHavingReadsNothing: a HAVING that is FALSE reads an empty
// relation, as a FALSE WHERE does — no Aggregate, no scan — and returns
// no row at any point of difftest.Matrix, grouped or not.
func TestFalseHavingReadsNothing(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v DOUBLE)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0.5), (2, 1.5), (1, 2.5)")
	for _, q := range []string{
		"SELECT k, count(*) FROM t GROUP BY k HAVING 1 = 0",
		"SELECT count(*) FROM t HAVING FALSE",
		"SELECT k FROM t GROUP BY k HAVING count(*) > 1 AND NULL",
	} {
		if n := difftest.Matrix(t, q, 64<<10, at(db, q)).NumRows(); n != 0 {
			t.Fatalf("%s: %d rows", q, n)
		}
		if plan := planText(t, db, "EXPLAIN "+q); strings.Contains(plan, "Aggregate") || strings.Contains(plan, "Scan") || !strings.Contains(plan, "Material rows=0") {
			t.Fatalf("EXPLAIN %s: want an empty relation, no Aggregate:\n%s", q, plan)
		}
	}
}

// TestTypesAndConstantsSettledAtBind: an untyped NULL takes its type
// from its context, column-free subtrees fold before the scan
// predicates are taken, a FALSE WHERE reads no segment, and items above
// GROUP BY bind as any other expression does — with the same rows at
// every width, budget and planner setting, materialized and streamed.
func TestTypesAndConstantsSettledAtBind(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, s VARCHAR)")
	batchInsert(t, db, "t", 6144, func(i int) string { return fmt.Sprintf("(%d, 's%d')", i%1000, i%7) }) // three sealed segments
	mustExec(t, db, "CREATE TABLE x AS SELECT a, count(*) FROM t WHERE a < 2 GROUP BY a")
	for _, c := range []struct {
		q     string
		want  []string      // difftest.Fingerprint rows
		names []string      // result columns
		types []vector.Type // result column types, nil for any
		scans bool          // whether the query reads a segment
	}{
		{"SELECT a FROM t WHERE NULL", nil, []string{"a"}, nil, false},
		{"SELECT a FROM t WHERE NOT NULL", nil, []string{"a"}, nil, false},
		{"SELECT a FROM t WHERE 1 = 0 AND a > 0", nil, []string{"a"}, nil, false},
		{"SELECT a FROM t WHERE a = NULL", nil, []string{"a"}, nil, false},
		{"SELECT CASE WHEN 1 = 1 THEN 'a' END AS x", []string{`"a"|`}, []string{"x"}, nil, false},
		{"SELECT count(*) FROM t WHERE a > 5 AND NULL <> s || 'x'", []string{"0|"}, []string{"count"}, nil, false},
		{"SELECT count(*) FROM t WHERE NULL OR a > 997", []string{"12|"}, []string{"count"}, nil, true},
		{"SELECT a + NULL FROM t WHERE a = 5 LIMIT 2", []string{"N|", "N|"}, nil, []vector.Type{vector.Int32}, true},
		{"SELECT -NULL", []string{"N|"}, nil, []vector.Type{vector.Float64}, false},
		{"SELECT sum(a) + NULL FROM t", []string{"N|"}, []string{"(sum(a) + NULL)"}, []vector.Type{vector.Int64}, true},
		{"SELECT a, count(*) FROM t WHERE a < 146 GROUP BY a HAVING count(*) IN (1, 6) ORDER BY a", []string{"144|6|", "145|6|"}, []string{"a", "count"}, nil, true},
		{"SELECT count(*) IN (6144, 4) FROM t", []string{"true|"}, nil, []vector.Type{vector.Bool}, true},
		{"SELECT a, count(*) AS n FROM t WHERE a > 140 AND a < 146 GROUP BY a ORDER BY count(*) DESC, a DESC", []string{"143|7|", "142|7|", "141|7|", "145|6|", "144|6|"}, []string{"a", "n"}, nil, true},
		{"SELECT a, count(*), max(a) + 1 FROM t WHERE a = 7 GROUP BY a", []string{"7|7|8|"}, []string{"a", "count", "(max(a) + 1)"}, nil, true},
		{"SELECT count(*) FROM t WHERE a = CAST('3' AS INTEGER)", []string{"7|"}, nil, nil, true},
		{"SELECT a FROM t WHERE a > 997 + 1 ORDER BY a LIMIT 1 + 1", []string{"999|", "999|"}, nil, nil, true},
		{"SELECT count FROM x ORDER BY a", []string{"7|", "7|"}, nil, []vector.Type{vector.Int64}, true},
	} {
		tab := difftest.Matrix(t, c.q, 64<<10, func(p difftest.Point) (*vector.Table, error) {
			tab, rs, err := queryAt(db, p, c.q)
			if err != nil {
				return nil, err
			}
			if st := rs.ScanStats(); (st.Scanned()+st.Skipped() > 0) != c.scans {
				return nil, fmt.Errorf("scanned %d and skipped %d segments", st.Scanned(), st.Skipped())
			}
			return tab, nil
		})
		if rows := difftest.Fingerprint(tab)[1:]; !slices.Equal(rows, c.want) {
			t.Fatalf("%q: rows %q, want %q", c.q, rows, c.want)
		}
		for i, col := range tab.Cols {
			if c.names != nil && tab.Names[i] != c.names[i] || c.types != nil && col.Type() != c.types[i] {
				t.Fatalf("%q: column %d is %s %s, want %v %v", c.q, i, tab.Names[i], col.Type(), c.names, c.types)
			}
		}
	}

	for q, want := range map[string]string{
		"SELECT a FROM t WHERE 1 = 0 AND a > 0":              "Material rows=0",
		"SELECT a FROM t WHERE a > 1 + 2":                    "Filter kernels=[(a > 3)]",
		"SELECT a FROM t WHERE a = CAST('3' AS INTEGER)":     "Filter kernels=[(a = 3)]",
		"SELECT a FROM t WHERE a = CAST('3' AS INTEGER) + 0": "Filter kernels=[(a = 3)]",
	} {
		plan := planText(t, db, "EXPLAIN ANALYZE "+q)
		if !strings.Contains(plan, want) || strings.Contains(plan, "residual") {
			t.Fatalf("EXPLAIN %s: want %q and no residual:\n%s", q, want, plan)
		}
	}
	for _, q := range []string{"SELECT a FROM t WHERE NULL", "SELECT a FROM t WHERE a = NULL"} {
		if plan := planText(t, db, "EXPLAIN ANALYZE "+q); strings.Contains(plan, "Scan") {
			t.Fatalf("%s: a FALSE WHERE scans:\n%s", q, plan)
		}
	}
	_, aggErr := db.Exec("SELECT abs(sum(a), 1) FROM t")
	_, rowErr := db.Exec("SELECT abs(a, 1) FROM t")
	if aggErr == nil || rowErr == nil || aggErr.Error() != rowErr.Error() {
		t.Fatalf("abs with two arguments: %v over an aggregate, %v over a column", aggErr, rowErr)
	}
	if _, err := db.Exec("EXPLAIN SELECT -max(s) FROM t"); err == nil || !strings.Contains(err.Error(), "unary minus on VARCHAR") {
		t.Fatalf("-max(s) bound: %v", err)
	}
	// A FALSE predicate reads no row, so the CAST that fails on every
	// row of s is never evaluated.
	for _, q := range []string{
		"DELETE FROM t WHERE 1 = 0 AND CAST(s AS INTEGER) > 0",
		"UPDATE t SET a = 0 WHERE NULL AND CAST(s AS INTEGER) > 0",
	} {
		if res := mustExec(t, db, q); res.RowsAffected != 0 {
			t.Fatalf("%s: %d rows affected", q, res.RowsAffected)
		}
	}
	if rows := difftest.Fingerprint(mustQuery(t, db, "SELECT count(*), sum(a) FROM t"))[1:]; !slices.Equal(rows, []string{"6144|3007296|"}) {
		t.Fatalf("after the writes: %q", rows)
	}
}

func TestUnion(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT id FROM users WHERE id <= 2 UNION ALL SELECT id FROM users WHERE id <= 1")
	if tab.NumRows() != 3 {
		t.Fatalf("union all rows = %d", tab.NumRows())
	}
	tab = mustQuery(t, db, "SELECT id FROM users WHERE id <= 2 UNION SELECT id FROM users WHERE id <= 1")
	if tab.NumRows() != 2 {
		t.Fatalf("union rows = %d", tab.NumRows())
	}
}

func TestInList(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT id FROM users WHERE name IN ('alice', 'bob') ORDER BY id")
	if tab.NumRows() != 2 {
		t.Fatal("IN")
	}
	tab = mustQuery(t, db, "SELECT id FROM users WHERE name NOT IN ('alice', 'bob') ORDER BY id")
	if tab.NumRows() != 3 {
		t.Fatal("NOT IN")
	}
}

func TestBetweenAndConcat(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, "SELECT id FROM users WHERE age BETWEEN 25 AND 30 ORDER BY id")
	if tab.NumRows() != 3 {
		t.Fatalf("between rows = %d", tab.NumRows())
	}
	tab = mustQuery(t, db, "SELECT name || '!' AS x FROM users WHERE id = 1")
	if tab.Column("x").Get(0).Str() != "alice!" {
		t.Fatal("concat")
	}
}

func TestInsertSelectAndCTAS(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE young AS SELECT id, name FROM users WHERE age < 30")
	tab := mustQuery(t, db, "SELECT count(*) AS n FROM young")
	if tab.Column("n").Get(0).Int64() != 2 {
		t.Fatal("CTAS")
	}
	res := mustExec(t, db, "INSERT INTO young SELECT id, name FROM users WHERE age >= 30")
	if res.RowsAffected != 2 {
		t.Fatalf("insert-select affected = %d", res.RowsAffected)
	}
	tab = mustQuery(t, db, "SELECT count(*) AS n FROM young")
	if tab.Column("n").Get(0).Int64() != 4 {
		t.Fatal("after insert-select")
	}
}

func TestInsertColumnSubset(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO users (id, name) VALUES (6, 'frank')")
	tab := mustQuery(t, db, "SELECT age FROM users WHERE id = 6")
	if !tab.Column("age").Get(0).IsNull() {
		t.Fatal("unspecified column must be NULL")
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "DELETE FROM orders WHERE amount < 10")
	if res.RowsAffected != 2 {
		t.Fatalf("deleted = %d", res.RowsAffected)
	}
	tab := mustQuery(t, db, "SELECT count(*) AS n FROM orders")
	if tab.Column("n").Get(0).Int64() != 3 {
		t.Fatal("rows after delete")
	}
	res = mustExec(t, db, "DELETE FROM orders")
	if res.RowsAffected != 3 {
		t.Fatal("delete all")
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "UPDATE users SET score = score + 1, name = upper(name) WHERE id <= 2")
	if res.RowsAffected != 2 {
		t.Fatalf("updated = %d", res.RowsAffected)
	}
	tab := mustQuery(t, db, "SELECT name, score FROM users WHERE id = 1")
	if tab.Column("name").Get(0).Str() != "ALICE" || tab.Column("score").Get(0).Float64() != 10.5 {
		t.Fatalf("update result: %v %v", tab.Column("name").Get(0), tab.Column("score").Get(0))
	}
	// Unmatched rows untouched.
	tab = mustQuery(t, db, "SELECT name FROM users WHERE id = 3")
	if tab.Column("name").Get(0).Str() != "carol" {
		t.Fatal("unmatched row modified")
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "DROP TABLE orders")
	if _, err := db.Exec("SELECT * FROM orders"); err == nil {
		t.Fatal("query after drop should fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS orders")
	if _, err := db.Exec("DROP TABLE orders"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestScalarUDF(t *testing.T) {
	db := newTestDB(t)
	err := db.Registry().RegisterScalar(&core.ScalarFunc{
		Name:       "plus_ten",
		Arity:      1,
		Parallel:   true,
		ReturnType: core.FixedReturn(vector.Float64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			in, err := args[0].AsFloat64s()
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(in))
			for i, x := range in {
				out[i] = x + 10
			}
			return vector.FromFloat64s(out), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := mustQuery(t, db, "SELECT plus_ten(score) AS s FROM users WHERE id = 1")
	if tab.Column("s").Get(0).Float64() != 19.5 {
		t.Fatalf("udf = %v", tab.Column("s").Get(0))
	}
}

// TestUDFBoundary: what a scalar UDF returns is checked and cast where
// it is called, whatever operator the call sits under. Three Parallel
// UDFs misbehave — one returns a row too many, one declares INTEGER and
// returns BIGINT, one declares BOOLEAN and returns BIGINT — over a
// scan, under a join (the UDF projection over it), in GROUP BY, ORDER
// BY, WHERE and a join's residual. Each query has one outcome at every
// point of difftest.Matrix: the one error text, or the same bytes with
// the UDF's column in its declared type.
func TestUDFBoundary(t *testing.T) {
	db := newTestDB(t)
	db.TempDir = t.TempDir()
	loadWide(t, db, 2*storage.SegmentRows+100)
	udf := func(name string, typ vector.Type, eval func(in []float64, nulls []bool) *vector.Vector) {
		t.Helper()
		err := db.Registry().RegisterScalar(&core.ScalarFunc{
			Name: name, Arity: 1, Parallel: true, ReturnType: core.FixedReturn(typ),
			Eval: func(args []*vector.Vector) (*vector.Vector, error) {
				in, err := args[0].AsFloat64s()
				if err != nil {
					return nil, err
				}
				return eval(in, args[0].Nulls()), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	bigints := func(in []float64, nulls []bool, f func(float64) int64) *vector.Vector {
		out := make([]int64, len(in))
		for i, x := range in {
			out[i] = f(x)
		}
		v := vector.FromInt64s(out)
		for i, null := range nulls {
			if null {
				v.SetNull(i)
			}
		}
		return v
	}
	udf("extra_row", vector.Int64, func(in []float64, _ []bool) *vector.Vector {
		return vector.FromInt64s(make([]int64, len(in)+1))
	})
	udf("narrow", vector.Int32, func(in []float64, nulls []bool) *vector.Vector {
		return bigints(in, nulls, func(x float64) int64 { return int64(x)*3 + 1<<32 }) // INTEGER keeps 3x
	})
	udf("truthy", vector.Bool, func(in []float64, nulls []bool) *vector.Vector {
		return bigints(in, nulls, func(x float64) int64 { return int64(x) % 2 })
	})
	const extraErr = "UDF extra_row: result row count differs from the input's"
	for _, c := range []struct {
		q   string
		typ vector.Type // the first column's, unless the query fails
	}{
		{"SELECT extra_row(k) AS v FROM w", vector.Invalid},
		{"SELECT narrow(k) AS v, k FROM w", vector.Int32},
		{"SELECT truthy(k) AS v, k FROM w", vector.Bool},
		{"SELECT extra_row(u.score) AS v FROM users u JOIN orders o ON u.id = o.user_id", vector.Invalid},
		{"SELECT extra_row(u.score) AS v, u.id FROM users u JOIN orders o ON u.id = o.user_id", vector.Invalid},
		{"SELECT narrow(u.id) AS v, u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id", vector.Int32},
		{"SELECT truthy(u.id) AS v, u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id", vector.Bool},
		{"SELECT extra_row(g) AS v, count(*) AS n FROM w GROUP BY extra_row(g)", vector.Invalid},
		{"SELECT narrow(g) AS v, count(*) AS n, sum(narrow(k)) AS s FROM w GROUP BY narrow(g)", vector.Int32},
		{"SELECT truthy(g) AS v, count(*) AS n FROM w GROUP BY truthy(g)", vector.Bool},
		{"SELECT k, s FROM w ORDER BY extra_row(k), k LIMIT 10", vector.Invalid},
		{"SELECT k, v FROM w ORDER BY narrow(k) DESC, v, s LIMIT 30", vector.Int64},
		{"SELECT k, v FROM w ORDER BY truthy(k), k DESC, v, s", vector.Int64},
		{"SELECT count(*) AS n FROM w WHERE extra_row(k) > 3", vector.Invalid},
		{"SELECT count(*) AS n, sum(v) AS s FROM w WHERE narrow(k) > 150", vector.Int64},
		{"SELECT k, s FROM w WHERE truthy(k) AND g < 3", vector.Int64},
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id AND extra_row(o.amount) > 1", vector.Invalid},
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id AND narrow(o.amount) > 20", vector.Int64},
		{"SELECT u.id, o.amount FROM users u LEFT JOIN orders o ON u.id = o.user_id AND truthy(o.amount)", vector.Int64},
	} {
		tab := difftest.Matrix(t, c.q, 64<<10, outcome(db, c.q))
		if c.typ == vector.Invalid {
			if tab.Names[0] != "error" || tab.Cols[0].Get(0).Str() != extraErr {
				t.Fatalf("%s: want the error %q, got %v", c.q, extraErr, difftest.Fingerprint(tab))
			}
			continue
		}
		if tab.Names[0] == "error" || tab.Cols[0].Type() != c.typ || tab.NumRows() == 0 {
			t.Fatalf("%s: want rows with a first column of %s, got %v", c.q, c.typ, difftest.Fingerprint(tab))
		}
	}
	if got := difftest.Fingerprint(mustQuery(t, db, "SELECT narrow(id) AS v, truthy(id) AS b FROM users WHERE id < 3")); !slices.Equal(got, []string{`"v" INTEGER|"b" BOOLEAN|`, "3|true|", "6|false|"}) {
		t.Fatalf("cast results: %q", got)
	}
	// A call's type is a real one: a UDF whose ReturnType gives none
	// fails at bind, so no Invalid vector reaches an operator.
	udf("untyped", vector.Invalid, func(in []float64, _ []bool) *vector.Vector { return vector.FromFloat64s(in) })
	if _, err := db.Exec("SELECT untyped(k) FROM w WHERE k < 0"); err == nil || !strings.Contains(err.Error(), "function untyped returns no type") {
		t.Fatalf("a UDF of no type: %v", err)
	}
}

func TestTableUDF(t *testing.T) {
	db := newTestDB(t)
	err := db.Registry().RegisterTable(&core.TableFunc{
		Name: "summarize",
		Columns: []core.ColumnDecl{
			{Name: "total", Type: vector.Float64},
			{Name: "rows", Type: vector.Int64},
		},
		Fn: func(args []core.TableArg, _ int) (*vector.Table, error) {
			if len(args) != 2 || !args[0].IsTable() || args[1].IsTable() {
				return nil, fmt.Errorf("summarize(table, factor)")
			}
			factor := args[1].Scalar.Float64()
			in := args[0].Table
			sum := 0.0
			vals, err := in.Cols[0].AsFloat64s()
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				sum += v
			}
			return vector.NewTable([]string{"total", "rows"}, []*vector.Vector{
				vector.FromFloat64s([]float64{sum * factor}),
				vector.FromInt64s([]int64{int64(in.NumRows())}),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := mustQuery(t, db, "SELECT * FROM summarize((SELECT amount FROM orders), 2)")
	if tab.Column("total").Get(0).Float64() != 172 {
		t.Fatalf("total = %v", tab.Column("total").Get(0))
	}
	if tab.Column("rows").Get(0).Int64() != 5 {
		t.Fatal("rows")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	db := newTestDB(t)
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	tab := mustQuery(t, db2, "SELECT count(*) AS n FROM users")
	if tab.Column("n").Get(0).Int64() != 5 {
		t.Fatal("reload row count")
	}
	tab = mustQuery(t, db2, "SELECT name FROM users WHERE id = 2")
	if tab.Column("name").Get(0).Str() != "bob" {
		t.Fatal("reload contents")
	}
}

func TestExecScript(t *testing.T) {
	db := New()
	res, err := db.ExecScript(`
		CREATE TABLE t (a BIGINT);
		INSERT INTO t VALUES (1), (2), (3);
		SELECT sum(a) AS s FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Column("s").Get(0).Int64() != 6 {
		t.Fatal("script result")
	}
}

func TestErrors(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		"SELECT nope FROM users",
		"SELECT * FROM missing",
		"SELECT id FROM users WHERE name",                                   // non-bool predicate
		"SELECT name, count(*) FROM users",                                  // bare column with aggregate
		"INSERT INTO users VALUES (1)",                                      // arity
		"INSERT INTO users (zzz) VALUES (1)",                                // unknown column
		"SELECT unknown_fn(id) FROM users",                                  // unknown function
		"SELECT * FROM unknown_tf((SELECT 1))",                              // unknown table function
		"SELECT u.id FROM users u JOIN users v ON u.id = v.id WHERE id = 1", // ambiguous
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
}

func TestLargeScanAcrossSegments(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE big (x BIGINT)")
	// Insert enough rows to span several segments via insert-select
	// doubling.
	mustExec(t, db, "INSERT INTO big VALUES (1)")
	for i := 0; i < 13; i++ { // 2^13 = 8192 rows
		mustExec(t, db, "INSERT INTO big SELECT x FROM big")
	}
	tab := mustQuery(t, db, "SELECT count(*) AS n, sum(x) AS s FROM big")
	if tab.Column("n").Get(0).Int64() != 8192 || tab.Column("s").Get(0).Int64() != 8192 {
		t.Fatalf("n=%v s=%v", tab.Column("n").Get(0), tab.Column("s").Get(0))
	}
}

func TestAggregateExpressionOverAggregates(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT user_id, sum(amount) / count(*) AS mean
		FROM orders GROUP BY user_id ORDER BY user_id`)
	if tab.Column("mean").Get(0).Float64() != 15 {
		t.Fatalf("mean = %v", tab.Column("mean").Get(0))
	}
}

func TestGroupByExpression(t *testing.T) {
	db := newTestDB(t)
	tab := mustQuery(t, db, `
		SELECT age % 10 AS bucket, count(*) AS n FROM users
		WHERE age IS NOT NULL GROUP BY age % 10 ORDER BY bucket`)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// ages 30,25,35,25 -> bucket 0 holds {30}, bucket 5 holds {25,35,25}.
	if tab.Column("bucket").Get(0).Int64() != 0 || tab.Column("n").Get(0).Int64() != 1 {
		t.Fatalf("bucket0 = %v n=%v", tab.Column("bucket").Get(0), tab.Column("n").Get(0))
	}
	if tab.Column("n").Get(1).Int64() != 3 {
		t.Fatalf("bucket5 n=%v", tab.Column("n").Get(1))
	}
}

// TestNonBooleanPredicatesFailAtBind: a predicate, an AND, OR or NOT
// operand or a CASE condition that is not BOOLEAN is rejected when the
// statement binds, as PostgreSQL rejects it: over an empty table, where
// no row reaches it, as over one with rows.
func TestNonBooleanPredicatesFailAtBind(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE e (s VARCHAR, n INTEGER)")
	for round := range 2 {
		if round == 1 {
			mustExec(t, db, "INSERT INTO e VALUES ('x', 1)")
		}
		for _, q := range []string{
			"SELECT s FROM e WHERE s",
			"SELECT s FROM e WHERE n > 0 AND s",
			"SELECT s FROM e WHERE n OR n > 0",
			"SELECT s FROM e WHERE NOT n",
			"SELECT CASE WHEN s THEN 1 ELSE 0 END FROM e",
			"SELECT s, count(*) FROM e GROUP BY s HAVING count(*)",
			"SELECT e.s FROM e JOIN e f ON e.s = f.s AND f.n",
			"DELETE FROM e WHERE s",
			"UPDATE e SET n = 0 WHERE n",
		} {
			if _, err := db.Exec(q); !errors.Is(err, plan.ErrNotBoolean) {
				t.Fatalf("round %d: %s: err = %v, want ErrNotBoolean", round, q, err)
			}
		}
	}
}
