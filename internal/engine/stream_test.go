package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vexdb/internal/core"
	"vexdb/internal/difftest"
	"vexdb/internal/exec"
	"vexdb/internal/vector"
)

// streamDB builds a database whose tables span many storage segments,
// so streamed delivery produces multiple chunks.
func streamDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE ev (id BIGINT, grp INTEGER, score DOUBLE, tag VARCHAR)")
	mustExec(t, db, "CREATE TABLE grps (grp INTEGER, label VARCHAR)")
	batchInsert(t, db, "ev", rows, func(i int) string {
		return fmt.Sprintf("(%d, %d, %g, 'tag%d')", i, i%13, float64(i%997)*0.25, i%7)
	})
	batchInsert(t, db, "grps", 13, func(g int) string { return fmt.Sprintf("(%d, 'group-%d')", g, g) })
	return db
}

// Streamed results must be row-identical to materialized ones for
// every plan shape, at every point of difftest.Matrix.
func TestStreamedMatchesExec(t *testing.T) {
	db := streamDB(t, 10_000)
	db.TempDir = t.TempDir()
	for _, q := range []string{
		"SELECT id, score FROM ev",
		"SELECT id, score * 2 AS s2 FROM ev WHERE grp = 3",
		"SELECT grp, count(*) AS n, sum(score) AS total FROM ev GROUP BY grp",
		"SELECT e.id, g.label FROM ev e JOIN grps g ON e.grp = g.grp WHERE e.id < 500",
		"SELECT id FROM ev ORDER BY score, id LIMIT 100",
		"SELECT DISTINCT tag FROM ev",
		"SELECT id FROM ev LIMIT 10 OFFSET 4000",
	} {
		difftest.Matrix(t, q, 64<<10, at(db, q))
	}
}

// A mid-stream failure (bad cast in a late storage segment) must
// deliver the leading chunks and then surface the error from Next.
func TestStreamMidStreamError(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE s (v VARCHAR)")
	const rows = 20_000
	batchInsert(t, db, "s", rows, func(i int) string {
		if i == rows-500 {
			return "('oops')"
		}
		return fmt.Sprintf("('%d')", i)
	})
	for _, workers := range []int{1, 2, 8} {
		db.Parallelism = workers
		rs, err := db.Query("SELECT CAST(v AS BIGINT) AS n FROM s")
		if err != nil {
			t.Fatalf("w=%d: open: %v", workers, err)
		}
		var chunks, rowsSeen int
		var streamErr error
		for {
			ch, err := rs.Next()
			if err != nil {
				streamErr = err
				break
			}
			if ch == nil {
				break
			}
			chunks++
			rowsSeen += ch.NumRows()
		}
		if streamErr == nil {
			t.Fatalf("w=%d: bad cast did not surface", workers)
		}
		if !strings.Contains(streamErr.Error(), "oops") {
			t.Fatalf("w=%d: err = %v", workers, streamErr)
		}
		if chunks == 0 {
			t.Fatalf("w=%d: no chunks delivered before the failure", workers)
		}
		if rowsSeen >= rows {
			t.Fatalf("w=%d: %d rows delivered despite row-level error", workers, rowsSeen)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("w=%d: close: %v", workers, err)
		}
	}
}

// Row-less statements report RowsAffected through the streaming API.
func TestQueryRowsAffected(t *testing.T) {
	db := New()
	rs, err := db.Query("CREATE TABLE w (a BIGINT)")
	if err != nil {
		t.Fatal(err)
	}
	if rs.HasRows() || rs.RowsAffected() != 0 {
		t.Fatalf("create: HasRows=%v affected=%d", rs.HasRows(), rs.RowsAffected())
	}
	rs, err = db.Query("INSERT INTO w VALUES (1), (2), (3)")
	if err != nil {
		t.Fatal(err)
	}
	if rs.HasRows() || rs.RowsAffected() != 3 {
		t.Fatalf("insert: HasRows=%v affected=%d", rs.HasRows(), rs.RowsAffected())
	}
	if ch, err := rs.Next(); ch != nil || err != nil {
		t.Fatalf("row-less Next = %v, %v", ch, err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
}

// Cancel from another goroutine must terminate a long aggregation.
func TestResultSetCancel(t *testing.T) {
	db := streamDB(t, 30_000)
	db.Parallelism = 4
	rs, err := db.Query("SELECT grp, sum(score) AS s FROM ev GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	rs.Cancel()
	_, nerr := rs.Next()
	if nerr == nil {
		// The aggregation may have finished before the cancel landed;
		// that is acceptable — only a hang or panic would be a bug.
		t.Log("aggregation completed before cancellation")
	} else if !errors.Is(nerr, exec.ErrCancelled) {
		t.Fatalf("err = %v", nerr)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExplainAnalyzeHonoursQueryTimeout: EXPLAIN ANALYZE runs the
// query, so the deadline that bounds a SELECT bounds it too. The UDF
// sleeps 5 µs a row, per chunk it is handed: 30 000 rows take 150 ms,
// three times the deadline.
func TestExplainAnalyzeHonoursQueryTimeout(t *testing.T) {
	db := streamDB(t, 30_000)
	err := db.Registry().RegisterScalar(&core.ScalarFunc{
		Name:       "slow",
		Arity:      1,
		ReturnType: core.FixedReturn(vector.Int64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			time.Sleep(time.Duration(args[0].Len()) * 5 * time.Microsecond)
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.QueryTimeout = 50 * time.Millisecond
	rs, err := db.Query("EXPLAIN ANALYZE SELECT slow(id) AS s FROM ev")
	if err == nil {
		rs.Close()
	}
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("EXPLAIN ANALYZE past the deadline: err = %v, want ErrQueryTimeout", err)
	}
}
