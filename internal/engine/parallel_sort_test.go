package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/vector"
)

// loadNaNTable populates a multi-segment table whose DOUBLE column
// carries NaN (via sqrt(-1)) and NULL rows mixed with duplicated
// finite values — the adversarial inputs for ORDER BY and DISTINCT
// aggregation.
func loadNaNTable(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE nf (id BIGINT, g INTEGER, v DOUBLE)")
	batchInsert(t, db, "nf", rows, func(i int) string {
		if i%53 == 13 { // NULL sort keys
			return fmt.Sprintf("(%d, %d, NULL)", i, i%7)
		}
		return fmt.Sprintf("(%d, %d, %g)", i, i%7, float64(i%19)-9)
	})
	// NaN rows: SQL has no NaN literal; sqrt(-1) produces one. Batch
	// them as UNION ALL chains of FROM-less selects.
	for lo := 0; lo < rows; lo += 53 * 40 {
		var nb strings.Builder
		nb.WriteString("INSERT INTO nf ")
		first := true
		for i := lo + 29; i < lo+53*40 && i < rows; i += 53 {
			if !first {
				nb.WriteString(" UNION ALL ")
			}
			first = false
			fmt.Fprintf(&nb, "SELECT CAST(%d AS BIGINT), CAST(%d AS INTEGER), sqrt(-1.0)", rows+i, i%7)
		}
		if !first {
			mustExec(t, db, nb.String())
		}
	}
}

// TestDifferentialParallelSortAndDistinctAgg: ORDER BY and DISTINCT
// aggregates return the same bytes at every point of difftest.Matrix,
// including NaN- and NULL-bearing sort keys.
func TestDifferentialParallelSortAndDistinctAgg(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	loadNaNTable(t, db, 6_000)
	queries := []string{
		// parallel sort over NaN/NULL keys, asc and desc, multi-key
		"SELECT id, v FROM nf ORDER BY v, id",
		"SELECT id, v FROM nf ORDER BY v DESC, id DESC",
		"SELECT id, g, v FROM nf ORDER BY g, v DESC, id",
		// sort above a filter; expression keys
		"SELECT id, v FROM nf WHERE g < 5 ORDER BY v * -1, id",
		// LIMIT/OFFSET push the bound into the merge
		"SELECT id, v FROM nf ORDER BY v, id LIMIT 100",
		"SELECT id, v FROM nf ORDER BY v, id LIMIT 64 OFFSET 4000",
		"SELECT id FROM nf ORDER BY id LIMIT 0",
		// DISTINCT aggregates, global and grouped, mixed with plain
		"SELECT count(DISTINCT v) AS cd, sum(DISTINCT v) AS sd, count(*) AS n FROM nf",
		"SELECT g, count(DISTINCT v) AS cd, avg(DISTINCT v) AS ad, min(DISTINCT v) AS mn, max(DISTINCT v) AS mx FROM nf GROUP BY g",
		"SELECT g, count(DISTINCT id) AS cd FROM nf WHERE v > 0 GROUP BY g",
		// SELECT DISTINCT rides the partitioned-aggregation rewrite
		"SELECT DISTINCT g FROM nf",
		"SELECT DISTINCT g, v FROM nf WHERE id < 2000",
	}
	for _, q := range queries {
		difftest.Matrix(t, q, 64<<10, at(db, q))
	}
}

// TestOrderByNaNDeterministic: repeated runs of an ORDER BY over a
// NaN-bearing column must return the identical permutation every time
// — the pre-total-order comparator made this nondeterministic — with
// NaN after every finite value ascending and NULLs last.
func TestOrderByNaNDeterministic(t *testing.T) {
	db := New()
	db.Parallelism = 8
	loadNaNTable(t, db, 3_000)
	const q = "SELECT id, v FROM nf ORDER BY v, id"
	tab := mustQuery(t, db, q)
	for run := 0; run < 5; run++ {
		if d := difftest.Diff(mustQuery(t, db, q), tab); d != "" {
			t.Fatalf("run %d against the first: %s — ORDER BY over NaN is nondeterministic", run, d)
		}
	}
	// Class ordering: finite < NaN < NULL ascending.
	v := tab.Column("v")
	state, nan := 0, 0
	for i := 0; i < v.Len(); i++ {
		var s int
		switch {
		case v.IsNull(i):
			s = 2
		case math.IsNaN(v.Float64s()[i]):
			s = 1
			nan++
		}
		if s < state {
			t.Fatalf("row %d: class %d after class %d", i, s, state)
		}
		state = s
	}
	if nan == 0 {
		t.Fatal("test table carries no NaN rows; the determinism check is vacuous")
	}
	if state != 2 {
		t.Fatal("expected NULLs at the tail")
	}
}

// TestWhereNaNSemantics: WHERE comparisons follow IEEE semantics —
// NaN satisfies no predicate except <> — matching the zone-map
// pruning premise (NaN is excluded from segment bounds), while ORDER
// BY uses the total order. Before floatCmpToBool, NaN compared equal
// to everything, so `v = 5` silently matched NaN rows and pruned vs
// unpruned scans could disagree.
func TestWhereNaNSemantics(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE wn (id BIGINT, v DOUBLE)")
	mustExec(t, db, "INSERT INTO wn VALUES (1, 1.0), (2, 5.0), (3, NULL)")
	mustExec(t, db, "INSERT INTO wn SELECT CAST(4 AS BIGINT), sqrt(-1.0)")
	for _, c := range []struct {
		pred string
		want int64
	}{
		{"v = 5", 1},  // not the NaN row
		{"v <= 1", 1}, // not the NaN row
		{"v >= 1", 2},
		{"v < 100", 2},
		{"v > 0", 2},
		{"v <> 5", 2}, // 1.0 and NaN; NULL row stays excluded
	} {
		q := "SELECT count(*) AS n FROM wn WHERE " + c.pred
		if got := difftest.Matrix(t, q, 64<<10, at(db, q)).Cols[0].Int64s()[0]; got != c.want {
			t.Fatalf("WHERE %s: count %d, want %d", c.pred, got, c.want)
		}
	}
}

// TestLimitOffsetChunkBoundaries pins limitOp's slicing at chunk
// boundaries: offsets landing mid-chunk, spanning whole chunks, and
// offset+count inside a single chunk must all return the same rows at
// every point of difftest.Matrix.
func TestLimitOffsetChunkBoundaries(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	rows := 3*vector.DefaultChunkSize + 100 // 3 full segments + partial tail
	mustExec(t, db, "CREATE TABLE lt (id BIGINT)")
	batchInsert(t, db, "lt", rows, func(i int) string { return fmt.Sprintf("(%d)", i) })
	cs := vector.DefaultChunkSize
	cases := []struct {
		name          string
		limit, offset int
	}{
		{"offset-mid-chunk", 500, cs / 2},
		{"offset-spans-chunks", 300, 2*cs + 17},
		{"offset-and-count-inside-one-chunk", 50, 100},
		{"offset-at-chunk-boundary", 10, cs},
		{"count-crosses-boundary", cs, cs - 5},
		{"offset-past-input", 5, rows + 10},
		{"zero-count", 0, 10},
		{"tail-partial-chunk", 200, 3 * cs},
		// The executor treats a negative OFFSET as skip-nothing; the
		// Sort.Limit hint must not undercut that (workers>1 once
		// returned fewer rows here than serial).
		{"negative-offset", 10, -5},
	}
	for _, c := range cases {
		q := fmt.Sprintf("SELECT id FROM lt LIMIT %d OFFSET %d", c.limit, c.offset)
		qSorted := fmt.Sprintf("SELECT id FROM lt ORDER BY id LIMIT %d OFFSET %d", c.limit, c.offset)
		for _, query := range []string{q, qSorted} {
			effOff := c.offset
			if effOff < 0 {
				effOff = 0 // the executor skips nothing for negative offsets
			}
			wantN := c.limit
			if effOff >= rows {
				wantN = 0
			} else if effOff+c.limit > rows {
				wantN = rows - effOff
			}
			serial := difftest.Matrix(t, query, 64<<10, at(db, query))
			if serial.NumRows() != wantN {
				t.Fatalf("%s %q: %d rows, want %d", c.name, query, serial.NumRows(), wantN)
			}
			for i, id := range serial.Column("id").Int64s() {
				if id != int64(effOff+i) {
					t.Fatalf("%s row %d: id %d, want %d", c.name, i, id, effOff+i)
				}
			}
		}
	}
}
