package engine

import (
	"fmt"
	"strings"
	"testing"

	"vexdb/internal/difftest"
)

// loadCastTable fills t with 5000 rows over three segments, sealed and
// tail: s holds id as text except on row 7, whose 'x' no BIGINT cast
// accepts.
func loadCastTable(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (id BIGINT, s VARCHAR)")
	batchInsert(t, db, "t", 5000, func(i int) string {
		if i == 7 {
			return "(7, 'x')"
		}
		return fmt.Sprintf("(%d, '%d')", i, i)
	})
}

// TestResidualErrorsWhereKernelRejects: the residual runs over whole
// chunks, so CAST('x' AS BIGINT) still fails the query when the kernel
// conjunct already rejected its row — with the one error text at every
// point of difftest.Matrix — and UPDATE/DELETE fail the same way
// without touching the table.
func TestResidualErrorsWhereKernelRejects(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	loadCastTable(t, db)
	const where = "WHERE id > 100 AND CAST(s AS BIGINT) >= 0"
	if tab := difftest.Matrix(t, "SELECT id FROM t "+where, 64<<10, outcome(db, "SELECT id FROM t "+where)); tab.Names[0] != "error" {
		t.Fatalf("SELECT succeeded past a failing residual: %d rows", tab.NumRows())
	}
	for _, stmt := range []string{"DELETE FROM t " + where, "UPDATE t SET s = '0' " + where} {
		if _, err := db.Exec(stmt); err == nil {
			t.Fatalf("%s succeeded past a failing residual", stmt)
		}
	}
	if n := mustQuery(t, db, "SELECT count(*) AS n FROM t WHERE s = 'x'").Cols[0].Get(0).Int64(); n != 1 {
		t.Fatalf("a failed write changed the table: %d rows still 'x'", n)
	}
	// Without the failing row in range of the residual's input the
	// kernels alone decide: id > 100 AND id < 200 keeps 99 rows.
	if n := mustQuery(t, db, "SELECT count(*) AS n FROM t WHERE id > 100 AND 200 > id").Cols[0].Get(0).Int64(); n != 99 {
		t.Fatalf("kernels kept %d rows, want 99", n)
	}
	if got := mustExec(t, db, "DELETE FROM t WHERE id >= 4000 AND id < 4500").RowsAffected; got != 500 {
		t.Fatalf("DELETE through kernels matched %d rows, want 500", got)
	}
}

// TestExplainNamesFilterKernels: EXPLAIN's Filter line shows which
// conjuncts run as selection kernels and which are the residual.
func TestExplainNamesFilterKernels(t *testing.T) {
	db := New()
	loadCastTable(t, db)
	text := planText(t, db, "EXPLAIN SELECT id FROM t WHERE id < 40 AND 2048 <= id AND CAST(s AS BIGINT) % 7 = 0")
	want := "Filter kernels=[(id < 40), (id >= 2048)] residual=[((CAST(s AS BIGINT) % 7) = 0)]"
	if !strings.Contains(text, want) {
		t.Fatalf("EXPLAIN missing %q:\n%s", want, text)
	}
}
