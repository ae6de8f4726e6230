package engine

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/vector"
)

// Cost-planner differential tests: every plan the cost pass may pick
// (reordered joins, flipped build sides, serial pins, widened spill
// fan-out) must produce byte-identical results to the syntactic plan,
// at any worker count and memory budget, streamed or materialized.

// loadEvents creates the skewed three-table workload: two event
// tables sharing a hot 7-value key (their join explodes) and a
// selective dimension. Row counts exceed one segment so sealed
// segments carry sketches and the planner sees real statistics.
func loadEvents(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE ev1 (k BIGINT, dk BIGINT, v DOUBLE)")
	mustExec(t, db, "CREATE TABLE ev2 (k BIGINT, w DOUBLE)")
	mustExec(t, db, "CREATE TABLE dm (dk BIGINT, label VARCHAR)")
	batchInsert(t, db, "ev1", rows, func(i int) string {
		return fmt.Sprintf("(%d, %d, %g)", i%7, i%256, float64(i)/4)
	})
	batchInsert(t, db, "ev2", rows, func(i int) string {
		return fmt.Sprintf("(%d, %g)", i%7, float64(i)/2)
	})
	batchInsert(t, db, "dm", 256, func(i int) string {
		return fmt.Sprintf("(%d, 'd%d')", i, i)
	})
}

func batchInsert(t *testing.T, db *DB, name string, rows int, gen func(i int) string) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if i%500 == 0 {
			if sb.Len() > 0 {
				mustExec(t, db, sb.String())
				sb.Reset()
			}
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		} else {
			sb.WriteString(",")
		}
		sb.WriteString(gen(i))
	}
	if sb.Len() > 0 {
		mustExec(t, db, sb.String())
	}
}

// loadFloatKeys creates two tables joined on a DOUBLE key seeded with
// NaN and NULL values — the cases where promoting comparisons to hash
// keys (or vice versa) would change semantics. The big table is
// written on the syntactic build side so the planner flips it.
func loadFloatKeys(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE f1 (fk DOUBLE, a BIGINT)")
	mustExec(t, db, "CREATE TABLE f2 (fk DOUBLE, b BIGINT)")
	f1, err := db.cat.Table("f1")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := db.cat.Table("f2")
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) vector.Value {
		switch {
		case i%89 == 0:
			return vector.Null()
		case i%97 == 0:
			return vector.NewFloat64(math.NaN())
		}
		return vector.NewFloat64(float64(i%50) / 2)
	}
	for i := 0; i < rows; i++ {
		if err := f1.Data.AppendRow([]vector.Value{key(i), vector.NewInt64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := f2.Data.AppendRow([]vector.Value{key(i * 3), vector.NewInt64(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCostPlanByteIdentity is the central acceptance test: the
// cost-based plan must be byte-identical to the syntactic plan across
// worker counts, memory budgets, and both consumption modes.
func TestCostPlanByteIdentity(t *testing.T) {
	t.Parallel()
	db := New()
	db.TempDir = t.TempDir()
	loadEvents(t, db, 3000)
	loadFloatKeys(t, db, 3000)
	queries := []string{
		// Skewed 3-table chain: the planner reorders dm ahead of ev2.
		"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2",
		// Aggregation over the reordered chain.
		"SELECT dm.label, count(*) AS n, sum(ev1.v + ev2.w) AS s FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 4 GROUP BY dm.label",
		// DOUBLE keys with NaN and NULL, big table on the syntactic
		// build side (planner flips it).
		"SELECT f2.b, f1.a FROM f2 JOIN f1 ON f2.fk = f1.fk WHERE f1.a < 500",
		// Same flip under a final ORDER BY (restoration sort composes
		// with a user sort).
		"SELECT f2.b, f1.a FROM f2 JOIN f1 ON f2.fk = f1.fk WHERE f1.a < 200 ORDER BY f1.a, f2.b",
		// Conjuncts naming no column, over a chain that keeps its
		// order and over one the planner rebuilds.
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE 1 = 0",
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 AND FALSE",
		"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2 AND CAST(NULL AS BOOLEAN)",
		"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2 AND 1 = 0",
		// WHERE conjuncts the cost pass places in the join tree (see
		// TestExplainSingleFilterOverJoin).
		"SELECT dm.label, count(*) AS n, sum(ev1.v) AS s FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 GROUP BY dm.label",
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 AND dm.dk >= 17 AND ev1.v > dm.dk",
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE abs(ev1.v) > 1 AND ev1.k < 3",
		"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2 AND ev2.w > ev1.v",
	}
	for _, q := range queries {
		difftest.Matrix(t, q, 64<<10, at(db, q))
	}
}

// TestCostPlanShrinksSkewedJoin: two event tables share 151 hot keys
// (their join explodes) and a selective dimension keeps 1% of dk,
// written worst-first. With the planner on, the result is
// byte-identical to the syntactic plan's, the deepest join scans dm,
// and the hash joins' summed actual output rows (EXPLAIN ANALYZE act=)
// are at least 10x fewer — the intermediate the reorder exists to
// avoid, counted instead of timed.
func TestCostPlanShrinksSkewedJoin(t *testing.T) {
	const events, hotKeys, dims = 6000, 151, 1000
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE ev1 (k BIGINT, dk BIGINT, v DOUBLE)")
	mustExec(t, db, "CREATE TABLE ev2 (k BIGINT, w DOUBLE)")
	mustExec(t, db, "CREATE TABLE dm (dk BIGINT, label VARCHAR)")
	batchInsert(t, db, "ev1", events, func(i int) string {
		return fmt.Sprintf("(%d, %d, %g)", i%hotKeys, i%dims, float64(i)/4)
	})
	batchInsert(t, db, "ev2", events, func(i int) string {
		return fmt.Sprintf("(%d, %g)", i%hotKeys, float64(i)/2)
	})
	batchInsert(t, db, "dm", dims, func(i int) string {
		return fmt.Sprintf("(%d, 'd%d')", i, i)
	})
	const q = "SELECT count(*) AS n, sum(ev1.v + ev2.w) AS s " +
		"FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 10"

	actRE := regexp.MustCompile(`act=(\d+)`)
	indent := func(ln string) int { return len(ln) - len(strings.TrimLeft(ln, " ")) }
	var joinRows [2]int64
	for i, planner := range []bool{false, true} {
		plan := mustQueryIn(t, db, Settings{Planner: planner}, "EXPLAIN ANALYZE "+q).Cols[0].Strings()
		deepest, depth := -1, -1
		for r, ln := range plan {
			if !strings.Contains(ln, "HashJoin") {
				continue
			}
			m := actRE.FindStringSubmatch(ln)
			if m == nil {
				t.Fatalf("planner=%v: join line without act=: %q", planner, ln)
			}
			n, _ := strconv.ParseInt(m[1], 10, 64)
			joinRows[i] += n
			if d := indent(ln); d > depth {
				deepest, depth = r, d
			}
		}
		if !planner {
			continue
		}
		scansDM := false
		for _, ln := range plan[deepest+1:] {
			if indent(ln) <= depth {
				break
			}
			if f := strings.Fields(ln); len(f) >= 2 && f[0] == "Scan" && f[1] == "dm" {
				scansDM = true
			}
		}
		if !scansDM {
			t.Fatalf("the cost-based plan does not join dm first:\n%s", strings.Join(plan, "\n"))
		}
	}
	t.Logf("hash join output rows: %d syntactic, %d cost-based", joinRows[0], joinRows[1])
	difftest.Matrix(t, q, 64<<10, at(db, q))
	if joinRows[1]*10 > joinRows[0] {
		t.Fatalf("join rows: %d with the planner, %d without; want at least 10x fewer", joinRows[1], joinRows[0])
	}
}

// TestExplainOutput checks the EXPLAIN surface: the cost-based plan
// renders the rewritten (rowpos-tagged) join with estimates, ANALYZE
// adds actual row counts, and disabling the planner shows the
// syntactic plan.
func TestExplainOutput(t *testing.T) {
	db := New()
	loadEvents(t, db, 3000)
	const q = "SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2"

	out := planText(t, db, "EXPLAIN "+q)
	for _, want := range []string{"HashJoin", "build=right", "est=", "rowpos", "Scan dm", "Sort"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "act=") {
		t.Fatalf("plain EXPLAIN must not report actuals:\n%s", out)
	}

	out = planText(t, db, "EXPLAIN ANALYZE "+q)
	if !strings.Contains(out, "act=") {
		t.Fatalf("EXPLAIN ANALYZE missing actuals:\n%s", out)
	}

	out = planTextIn(t, db, Settings{}, "EXPLAIN "+q)
	if strings.Contains(out, "rowpos") {
		t.Fatalf("syntactic plan must not be rewritten:\n%s", out)
	}
}

// TestLeafFiltersKeepSyntacticOrder: when the cost pass keeps the
// syntactic join order it still evaluates single-table WHERE conjuncts
// below the join (EXPLAIN shows the Filter on the leaf, no rowpos tag,
// no restoration sort), and the result is byte-identical to the
// syntactic plan's — conjuncts on the probe side, the build side and
// both, over a filtered DOUBLE column holding NULL and NaN, at every
// point of difftest.Matrix under a 16 KB budget.
func TestLeafFiltersKeepSyntacticOrder(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	loadEvents(t, db, 3000)
	loadFloatKeys(t, db, 3000)
	queries := []string{
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.v < 100",                                                          // probe side
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE dm.label <> 'd3' AND dm.dk >= 17",                                     // build side
		"SELECT dm.label, count(*) AS n, sum(ev1.v) AS s FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 AND dm.dk < 200 GROUP BY dm.label", // both, under an aggregate
		"SELECT f1.a, f2.b, f1.fk FROM f1 JOIN f2 ON f1.a = f2.b WHERE f1.fk < 10",                                                             // NULL and NaN fail the probe-side conjunct
		"SELECT f1.a, f2.fk FROM f1 JOIN f2 ON f1.a = f2.b WHERE f2.fk >= 1 AND f1.fk >= 0",                                                    // NaN passes >=, NULL does not
		"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 0",                                                            // nothing survives the build side
	}
	for qi, q := range queries {
		text := planText(t, db, "EXPLAIN "+q)
		join := strings.Index(text, "HashJoin")
		if strings.Contains(text, "rowpos") || join < 0 || !strings.Contains(text[join:], "Filter") || strings.Contains(text[:join], "Filter") {
			t.Fatalf("q%d: want the syntactic order with a Filter on a leaf and none on top:\n%s", qi, text)
		}

		if n := difftest.Matrix(t, q, 16<<10, at(db, q)).NumRows(); (n == 0) != (qi == len(queries)-1) {
			t.Fatalf("q%d: %d rows", qi, n)
		}
	}
}

// TestJoinKeyTyping: an ON key pair of two numeric types is compared in
// the wider one whether it stands alone or beside other keys, so every
// ON form returns what the WHERE form returns — at any worker count,
// budget and planner setting.
func TestJoinKeyTyping(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE a (i INTEGER, s VARCHAR)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	mustExec(t, db, "CREATE TABLE b (j BIGINT, s VARCHAR, e DOUBLE)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 'x', -0.0), (2, 'y', 1.0), (3, 'q', 2.0)")
	for _, c := range []struct {
		from string
		want int64
	}{
		{"a JOIN b ON a.i = b.j", 3},
		{"a JOIN b ON a.i = b.j AND a.s = b.s", 2},
		{"a, b WHERE a.i = b.j AND a.s = b.s", 2},
		{"a JOIN b ON a.i = b.e", 2},
		{"a, b WHERE a.i = b.e", 2},
	} {
		q := "SELECT count(*) FROM " + c.from
		for _, tight := range []int64{64 << 10, 64} {
			if got := difftest.Matrix(t, q, tight, at(db, q)).Cols[0].Int64s()[0]; got != c.want {
				t.Fatalf("%s: %d rows, want %d", q, got, c.want)
			}
		}
	}
}

// TestColumnFreeOnConjuncts: an ON conjunct that reads no column is no
// hash key. A TRUE one drops out of the join, and a FALSE one empties
// an inner join and pads every row of a LEFT one, at every point of
// difftest.Matrix.
func TestColumnFreeOnConjuncts(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE a (i INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, db, "CREATE TABLE b (j BIGINT, s VARCHAR)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 'x'), (2, 'q'), (4, 'w')")
	for _, c := range []struct {
		on   string
		want []string
	}{
		{"JOIN b ON a.i = b.j AND 1 = 1", []string{`1|"x"|`, `2|"q"|`}},
		{"JOIN b ON a.i = b.j AND 1 = 0", nil},
		{"LEFT JOIN b ON a.i = b.j AND 1 = 1", []string{`1|"x"|`, `2|"q"|`, `3|N|`}},
		{"LEFT JOIN b ON 1 = 0 AND a.i = b.j", []string{`1|N|`, `2|N|`, `3|N|`}},
	} {
		q := "SELECT a.i, b.s FROM a " + c.on + " ORDER BY a.i"
		if rows := difftest.Fingerprint(difftest.Matrix(t, q, 64<<10, at(db, q)))[1:]; !slices.Equal(rows, c.want) {
			t.Fatalf("%s: rows %q, want %q", q, rows, c.want)
		}
		if plan := planText(t, db, "EXPLAIN ANALYZE "+q); !regexp.MustCompile(`HashJoin \w+ on \(?i = j\)? `).MatchString(plan) {
			t.Fatalf("%s: want one key, i = j:\n%s", q, plan)
		}
	}
}

// TestExplainSingleFilterOverJoin: a WHERE conjunct the binder or the
// cost pass places in the join tree is evaluated there and nowhere
// else, so EXPLAIN shows it once — on the leaf it filters, or at the
// join that takes it in a rebuilt tree — and the Filter over the chain
// keeps only what the tree does not evaluate (conjuncts spanning leaves
// of a syntactic tree; every conjunct of a WHERE with a UDF call, which
// may raise), or goes. A WHERE with a FALSE conjunct reads no join at
// all: its FROM is an empty relation.
// TestCostPlanByteIdentity holds the results to the syntactic plan's.
func TestExplainSingleFilterOverJoin(t *testing.T) {
	db := New()
	loadEvents(t, db, 3000)
	for qi, c := range []struct {
		q      string
		once   []string // conjuncts EXPLAIN must print exactly once
		onTop  string   // the Filter over the chain, "" for none
		rowpos bool     // whether the tree is rebuilt
	}{
		{"SELECT dm.label, count(*) AS n, sum(ev1.v) AS s FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 GROUP BY dm.label",
			[]string{"k < 3"}, "", false},
		{"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 AND dm.dk >= 17 AND ev1.v > dm.dk",
			[]string{"k < 3", "dk >= 17", "v > dk"}, "v > dk", false},
		{"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE abs(ev1.v) > 1 AND ev1.k < 3",
			[]string{"k < 3", "abs"}, "abs", false},
		{"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2",
			[]string{"dk < 2"}, "", true},
		{"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2 AND ev2.w > ev1.v",
			[]string{"dk < 2", "residual"}, "", true}, // the join evaluates w > v
		{"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE 1 = 0",
			[]string{"Material rows=0"}, "", false}, // a FALSE WHERE reads an empty relation, no join
		{"SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 AND FALSE",
			[]string{"Material rows=0"}, "", false},
		{"SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2 AND 1 = 0",
			[]string{"Material rows=0"}, "", false},
	} {
		text := planText(t, db, "EXPLAIN "+c.q)
		for _, conj := range c.once {
			if n := strings.Count(text, conj); n != 1 {
				t.Fatalf("q%d: %q printed %d times, want once:\n%s", qi, conj, n, text)
			}
		}
		join := strings.Index(text, "HashJoin")
		if join < 0 { // a FALSE WHERE: the FROM is an empty relation
			join = strings.Index(text, "Material rows=0")
		}
		top := text[:join]
		if c.rowpos {
			top = text[:strings.Index(text, "Sort")]
		}
		if strings.Contains(top, "Filter") != (c.onTop != "") || !strings.Contains(top, c.onTop) || strings.Contains(text, "rowpos") != c.rowpos {
			t.Fatalf("q%d: want the Filter over the chain to be %q (rebuilt: %v):\n%s", qi, c.onTop, c.rowpos, text)
		}
	}
	// A conjunct naming no column is left unfolded only when it fails;
	// it fails with the planner as without it.
	for _, planner := range []bool{false, true} {
		if _, err := db.ExecSession(sessionOf(db, Settings{Planner: planner}), "SELECT ev1.v, dm.label FROM ev1 JOIN dm ON ev1.dk = dm.dk WHERE ev1.k < 3 AND CAST('x' AS INTEGER) = 1"); err == nil {
			t.Fatalf("planner=%v: a failing conjunct over a join chain did not fail", planner)
		}
	}
}

// outcome runs q at p and returns its rows or, where it fails, a
// one-row table of the error's text, so that Matrix holds a failure to
// the same contract as a result.
func outcome(db *DB, q string) func(difftest.Point) (*vector.Table, error) {
	return func(p difftest.Point) (*vector.Table, error) {
		tab, _, err := queryAt(db, p, q)
		if err != nil {
			return vector.NewTable([]string{"error"}, []*vector.Vector{vector.FromStrings([]string{err.Error()})})
		}
		return tab, nil
	}
}

// TestMayFailConjunctsStayInPlace: a conjunct that may raise (a CAST
// from VARCHAR) sees exactly the rows the syntactic plan gives it, with
// the planner on or off: over the joined rows, where the row 'x' never
// joins, in WHERE and in ON alike; and beside a kernel that would
// otherwise move below the join and drop 'x' before the CAST saw it.
func TestMayFailConjunctsStayInPlace(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE t (k INTEGER, s VARCHAR)")
	mustExec(t, db, "INSERT INTO t VALUES (1, '5'), (2, 'x')")
	mustExec(t, db, "CREATE TABLE u1 (k INTEGER)")
	mustExec(t, db, "INSERT INTO u1 VALUES (1)")
	mustExec(t, db, "CREATE TABLE u2 (k INTEGER)")
	mustExec(t, db, "INSERT INTO u2 VALUES (1), (2)")
	for _, c := range []struct {
		q    string
		want string // the one row, or the error the oracle raises
	}{
		{"SELECT t.k FROM u1 JOIN t ON u1.k = t.k WHERE CAST(t.s AS INTEGER) > 3", "1"},
		{"SELECT t.k FROM u1 JOIN t ON u1.k = t.k AND CAST(t.s AS INTEGER) > 3", "1"},
		{"SELECT t.k FROM u2 JOIN t ON u2.k = t.k WHERE t.k < 2 AND CAST(t.s AS INTEGER) > u2.k", `cast "x" to INTEGER`},
	} {
		tab := difftest.Matrix(t, c.q, 64<<10, outcome(db, c.q))
		if got := tab.Cols[0].Get(0).String(); tab.NumRows() != 1 || !strings.Contains(got, c.want) {
			t.Fatalf("%s: %d rows, first %q; want one, %q", c.q, tab.NumRows(), got, c.want)
		}
	}
}
