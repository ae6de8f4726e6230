package engine

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// loadHighCard loads an unclustered high-cardinality table so
// aggregation, join build and sort all outgrow a small budget.
func loadHighCard(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE h (id BIGINT, k BIGINT, v DOUBLE, s VARCHAR)")
	tab, err := db.cat.Table("h")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, rows)
	ks := make([]int64, rows)
	vs := vector.New(vector.Float64, rows)
	ss := make([]string, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		ks[i] = int64((uint64(i) * 2654435761) % uint64(rows*3/4))
		if i%29 == 11 {
			vs.AppendValue(vector.Null())
		} else {
			vs.AppendValue(vector.NewFloat64(float64((i*13)%512) / 8))
		}
		ss[i] = fmt.Sprintf("s%d", i%23)
	}
	if err := tab.Data.AppendChunk(vector.NewChunk(
		vector.FromInt64s(ids), vector.FromInt64s(ks), vs, vector.FromStrings(ss))); err != nil {
		t.Fatal(err)
	}
}

var spillQueries = []string{
	"SELECT k, count(*) AS n, sum(v) AS sv, min(s) AS mn, count(DISTINCT s) AS cd FROM h GROUP BY k",
	"SELECT a.id, b.k FROM h a JOIN h b ON a.k = b.k WHERE a.id < 2000",
	"SELECT id, v FROM h ORDER BY v, id",
	"SELECT v, count(*) AS n FROM h GROUP BY v", // NULL + NaN-free float keys
}

// TestEngineSpillDifferential: SQL-level results under a tiny budget
// match the unlimited run at every point of difftest.Matrix; under the
// budget SpillStats surface through the ResultSet, and the temp dir
// ends empty once every point has closed.
func TestEngineSpillDifferential(t *testing.T) {
	t.Parallel()
	const rows = 12_000
	dir := t.TempDir()
	db := New()
	db.TempDir = dir
	loadHighCard(t, db, rows)
	for _, q := range spillQueries { // 32 KB is below the smallest state, 513 float groups and a count (~48 KB)
		difftest.Matrix(t, q, 32<<10, func(p difftest.Point) (*vector.Table, error) {
			tab, rs, err := queryAt(db, p, q)
			if err != nil {
				return nil, err
			}
			if rs.SpillStats().Spilled() != (p.Budget > 0) {
				return nil, fmt.Errorf("spilled=%v", rs.SpillStats().Spilled())
			}
			return tab, nil
		})
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%s: %d temp entries left (%v)", q, len(ents), err)
		}
	}
}

// TestEngineSpillCancelCleanup: abandoning a spilling streamed query
// mid-flight must still remove its temp files on Close.
func TestEngineSpillCancelCleanup(t *testing.T) {
	const rows = 12_000
	dir := t.TempDir()
	db := New()
	db.MemoryBudget = 64 << 10
	db.TempDir = dir
	db.Parallelism = 2
	loadHighCard(t, db, rows)

	rs, err := db.Query("SELECT id, v FROM h ORDER BY v, id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	rs.Cancel()
	rs.Next() // observe cancellation
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d temp entries left after cancel", len(ents))
	}
}

// TestProfileCountersAgree: one query's counters, read three ways, are
// the same events — the per-operator spilled=/resident= of EXPLAIN
// ANALYZE sum to its spill: header and to the result set's spill
// totals, and the table's cumulative segment counters advance by
// exactly the result set's scan totals — for a GROUP BY, a hash join,
// an ORDER BY and a zone-map-pruned scan, with and without a budget
// that makes the first three spill. The GROUP BY groups on codes
// (dense=) without the budget, and hashes under it.
func TestProfileCountersAgree(t *testing.T) {
	const rows = 12_000
	queries := []struct {
		sql                        string
		parts, runs, prunes, dense bool // partitions and runs spilled under the budget; segments skipped; dense without it
	}{
		{"SELECT k, count(*) AS n, sum(v) AS sv FROM h GROUP BY k", true, false, false, true},
		{"SELECT a.id, b.k FROM h a JOIN h b ON a.k = b.k WHERE a.id < 2000", true, false, true, false},
		{"SELECT id, v FROM h ORDER BY v, id", false, true, false, false},
		{"SELECT count(*) AS n FROM h WHERE id >= 10000", false, false, true, false},
	}
	node := regexp.MustCompile(`spilled=(\d+) resident=(\d+)`)
	scan := regexp.MustCompile(`decoded=(\d+) coded=(\d+)`)
	header := regexp.MustCompile(`^spill: partitions spilled=(\d+) resident=(\d+) runs=(\d+) `)
	atoi := func(s string) int64 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	db := New()
	db.TempDir = t.TempDir()
	loadHighCard(t, db, rows)
	tab, err := db.cat.Table("h")
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 32 << 10} {
		for _, workers := range []int{1, 2, 8} {
			s := sessionOf(db, Settings{Workers: workers, Budget: budget, Planner: true})
			for _, q := range queries {
				label := fmt.Sprintf("%q workers=%d budget=%d", q.sql, workers, budget)
				stmt, err := sql.Parse(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				before := tab.Data.Stats()
				lines, rs, err := db.analyze(context.Background(), s, stmt.(*sql.Select))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				after := tab.Data.Stats()

				var spilled, resident, decoded, coded int64
				var hdr [3]int64
				for _, l := range lines {
					if m := header.FindStringSubmatch(l); m != nil {
						hdr = [3]int64{atoi(m[1]), atoi(m[2]), atoi(m[3])}
					} else if m := node.FindStringSubmatch(l); m != nil {
						spilled += atoi(m[1])
						resident += atoi(m[2])
					}
					if m := scan.FindStringSubmatch(l); m != nil {
						decoded += atoi(m[1])
						coded += atoi(m[2])
					}
				}
				sp := rs.SpillStats()
				if spilled != hdr[0] || resident != hdr[1] || sp.Partitions() != hdr[0] || sp.ResidentPartitions() != hdr[1] || sp.Runs() != hdr[2] {
					t.Fatalf("%s: operators spilled=%d resident=%d; header %v; result set partitions=%d resident=%d runs=%d\n%s",
						label, spilled, resident, hdr, sp.Partitions(), sp.ResidentPartitions(), sp.Runs(), strings.Join(lines, "\n"))
				}
				if sp.Partitions() > 0 != (q.parts && budget > 0) || q.runs && budget > 0 && sp.Runs() == 0 || budget == 0 && sp.Spilled() {
					t.Fatalf("%s: %d partitions and %d runs spilled, %d bytes written\n%s", label, sp.Partitions(), sp.Runs(), sp.BytesWritten(), strings.Join(lines, "\n"))
				}

				dense := q.dense && budget == 0
				if strings.Contains(strings.Join(lines, "\n"), "dense=") != dense {
					t.Fatalf("%s: dense=%v wanted\n%s", label, dense, strings.Join(lines, "\n"))
				}
				sc := rs.ScanStats()
				// Every query decodes compressed values but the dense
				// GROUP BY, whose key is read on its codes and whose
				// other column is raw; the two with a WHERE evaluate its
				// kernels on codes.
				if decoded != sc.Decoded() || coded != sc.Coded() || (decoded == 0) != dense || (coded > 0) != q.prunes {
					t.Fatalf("%s: scans decoded=%d coded=%d, query decoded=%d coded=%d\n%s",
						label, decoded, coded, sc.Decoded(), sc.Coded(), strings.Join(lines, "\n"))
				}
				if got, want := after.SegmentsScanned-before.SegmentsScanned, sc.Scanned(); got != want || want == 0 {
					t.Fatalf("%s: table counted %d segments scanned, the query %d", label, got, want)
				}
				if got, want := after.SegmentsSkipped-before.SegmentsSkipped, sc.Skipped(); got != want || (want > 0) != q.prunes {
					t.Fatalf("%s: table counted %d segments skipped, the query %d", label, got, want)
				}
			}
		}
	}
}
