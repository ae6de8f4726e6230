package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// loadDenseTables creates two tables holding the same rows: dz with
// compression and statistics, whose GROUP BY keys have domains, and
// rz sealed raw without statistics, the reference path, which hashes.
// rows is not a multiple of the segment size, so both have a mutable
// tail. Column by column in dz's sealed segments:
//
//	id    BIGINT   FOR
//	i32   INTEGER  FOR, raw in the segment with NULLs
//	i64   BIGINT   FOR around 2^40
//	r     BIGINT   RLE
//	s     VARCHAR  dict; NULLs and a value of its own in the tail only
//	name  VARCHAR  dict
//	w     DOUBLE   dyadic, so every float sum is exact
//	fz    DOUBLE   −0.0 in a third of the rows
func loadDenseTables(t *testing.T, db *DB, rows int) {
	t.Helper()
	for _, name := range []string{"dz", "rz"} {
		mustExec(t, db, "CREATE TABLE "+name+" (id BIGINT, i32 INTEGER, i64 BIGINT, r BIGINT, s VARCHAR, name VARCHAR, w DOUBLE, fz DOUBLE)")
	}
	denseAppend(t, db, 0, rows)
}

// denseAppend appends rows from, from+1, … to both tables.
func denseAppend(t *testing.T, db *DB, from, rows int) {
	t.Helper()
	cols := []*vector.Vector{
		vector.New(vector.Int64, rows), vector.New(vector.Int32, rows), vector.New(vector.Int64, rows), vector.New(vector.Int64, rows),
		vector.New(vector.String, rows), vector.New(vector.String, rows), vector.New(vector.Float64, rows), vector.New(vector.Float64, rows),
	}
	for i := from; i < from+rows; i++ {
		i32 := vector.NewInt32(int32(i%101 - 50))
		if i/2048 == 1 && i%37 == 0 {
			i32 = vector.Null()
		}
		s := vector.NewString(fmt.Sprintf("k%02d", i%13))
		switch {
		case i >= 8192 && i%9 == 0:
			s = vector.Null()
		case i >= 8192 && i%7 == 0:
			s = vector.NewString("tail only")
		}
		fz := float64(i%5) / 4
		if i%3 == 0 {
			fz = math.Copysign(0, -1)
		}
		for c, v := range []vector.Value{
			vector.NewInt64(int64(i)), i32, vector.NewInt64(1<<40 + int64(i*37%250)), vector.NewInt64(int64(i / 600 % 4)),
			s, vector.NewString(fmt.Sprintf("n%d", i*7919%1000)), vector.NewFloat64(float64(i%257) / 8), vector.NewFloat64(fz),
		} {
			cols[c].AppendValue(v)
		}
	}
	for _, name := range []string{"dz", "rz"} {
		tab, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tab.Data.SetCompression(name == "dz")
		if err := tab.Data.AppendChunk(vector.NewChunk(cols...)); err != nil {
			t.Fatal(err)
		}
	}
}

// denseQueries are the queries over table T of the dense path's
// differential test, with whether their aggregation groups on codes.
var denseQueries = []struct {
	q     string
	dense bool
}{
	{"SELECT i32, count(*) AS n, sum(w) AS sw, min(name) AS mn, max(name) AS mx FROM T GROUP BY i32", true},
	{"SELECT i64, count(*) AS n, sum(fz) AS sz, max(id) AS last FROM T GROUP BY i64", true},
	{"SELECT s, count(*) AS n, avg(w) AS aw, min(i32) AS lo FROM T GROUP BY s", true},
	{"SELECT i32, s, count(*) AS n, sum(w) AS sw FROM T GROUP BY i32, s", true},
	{"SELECT r, i32, count(DISTINCT s) AS ds, sum(DISTINCT w) AS dw, count(*) AS n FROM T GROUP BY r, i32", true},
	{"SELECT count(DISTINCT i32) AS d, count(DISTINCT s) AS ds FROM T", true},
	{"SELECT DISTINCT s, r FROM T", false}, // over a projection
	{"SELECT i32, count(*) AS n, sum(fz) AS sz FROM T WHERE id < 5000 GROUP BY i32", true},
	{"SELECT s, i64, min(name) AS mn FROM T WHERE s <> 'k03' GROUP BY s, i64", true},
	{"SELECT i32, sum(i32) AS si, count(name) AS nn FROM T GROUP BY i32", true},
}

// TestDenseGroupMatchesReference: an aggregation that groups on codes
// returns the bytes the hash path returns over the same rows stored
// raw, at widths 1, 2 and 8, without and with a memory budget (small
// enough to spill the reference's blocking operators, large enough to
// keep the dense tables), with the cost planner off and on, drained
// materialized and streamed — over INTEGER, BIGINT, VARCHAR and
// multi-column keys with NULL keys and a mutable tail, DISTINCT
// aggregates, MIN/MAX over strings and sums of −0.0, before and after
// UPDATE and DELETE rewrite segments and an INSERT grows the tail.
func TestDenseGroupMatchesReference(t *testing.T) {
	t.Parallel()
	db := New()
	db.TempDir = t.TempDir()
	loadDenseTables(t, db, 9000)
	for round, write := range []func(){
		func() {},
		func() {
			for _, name := range []string{"dz", "rz"} {
				mustExec(t, db, "UPDATE "+name+" SET i32 = i32 + 60, s = 'updated' WHERE id % 11 = 4")
				mustExec(t, db, "DELETE FROM "+name+" WHERE id % 13 = 5")
			}
			denseAppend(t, db, 9000, 700)
		},
	} {
		write()
		for qi, c := range denseQueries {
			dq, rq := strings.ReplaceAll(c.q, " T", " dz"), strings.ReplaceAll(c.q, " T", " rz")
			db.NoCostPlanner, db.Parallelism, db.MemoryBudget = false, 2, 0
			if plan := planText(t, db, "EXPLAIN ANALYZE "+dq); strings.Contains(plan, "dense=") != c.dense {
				t.Fatalf("round %d q%d: dense tables over dz not as wanted:\n%s", round, qi, plan)
			}
			if plan := planText(t, db, "EXPLAIN ANALYZE "+rq); strings.Contains(plan, "dense=") {
				t.Fatalf("round %d q%d: a dense table over rz:\n%s", round, qi, plan)
			}
			db.Parallelism = 1
			if d := difftest.Diff(difftest.Matrix(t, dq, 64<<10, at(db, dq)), mustQuery(t, db, rq)); d != "" {
				t.Fatalf("round %d q%d: dz differs from rz: %s", round, qi, d)
			}
		}
	}
}

// planText returns the lines an EXPLAIN statement prints.
func planText(t *testing.T, db *DB, explain string) string {
	t.Helper()
	return strings.Join(mustQuery(t, db, explain).Cols[0].Strings(), "\n")
}

// writeUnderstatedTable saves a table c whose key k spans 1000…1999
// over three sealed segments and a tail, then edits every zone map of
// k in the file to claim a maximum of 1500, and returns the directory.
// The edit is in the zone maps alone, which carry no checksum.
func writeUnderstatedTable(t *testing.T) string {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE c (k BIGINT, v BIGINT)")
	batchInsert(t, db, "c", 3*2048+100, func(i int) string { return fmt.Sprintf("(%d, %d)", 1000+i*7%1000, i%7) })
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c.vxtb")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bound := func(x uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{byte(vector.Int64)}, x) }
	edited := bytes.ReplaceAll(raw, bound(1999), bound(1500))
	if bytes.Equal(edited, raw) {
		t.Fatal("no zone bound 1999 in the file")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestUnderstatedStatisticsAreAnError: grouping a loaded table whose
// zone maps understate a key's range reaches a value outside the
// domain they give; at every width that is storage.ErrOutOfDomain,
// never a panic, and the engine answers the next query.
func TestUnderstatedStatisticsAreAnError(t *testing.T) {
	db := New()
	if err := db.LoadDir(writeUnderstatedTable(t)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		db.Parallelism = workers
		rs, err := db.Query("SELECT k, count(*) AS n, sum(v) AS sv FROM c GROUP BY k")
		if err == nil {
			_, err = rs.Materialize()
		}
		if !errors.Is(err, storage.ErrOutOfDomain) {
			t.Fatalf("workers=%d: err = %v, want ErrOutOfDomain", workers, err)
		}
		if n := mustQuery(t, db, "SELECT count(*) AS n FROM c").Cols[0].Get(0).Int64(); n != 3*2048+100 {
			t.Fatalf("workers=%d: next query counted %d rows", workers, n)
		}
	}
}

// TestDenseStringExtremaUnderBudget: a MAX over strings grows as rows
// arrive, and a dense table cannot spill, so under a memory budget
// such a table hashes — and spills, as the reference does over the
// same rows raw — even where its replicas' fixed cells would pass the
// fair-share test (1 001 slots of 37 B at two workers is 74 KB, under
// a quarter of the budget, while the payloads reach a megabyte).
func TestDenseStringExtremaUnderBudget(t *testing.T) {
	t.Parallel()
	const rows = 20_000
	db := New()
	db.TempDir = t.TempDir()
	for _, name := range []string{"sz", "sr"} {
		mustExec(t, db, "CREATE TABLE "+name+" (k BIGINT, name VARCHAR)")
	}
	ks, names := vector.New(vector.Int64, rows), vector.New(vector.String, rows)
	pad := strings.Repeat("x", 1000)
	for i := range rows {
		ks.AppendValue(vector.NewInt64(int64(i % 1000)))
		names.AppendValue(vector.NewString(fmt.Sprintf("%05d%s", i*7919%rows, pad)))
	}
	for _, name := range []string{"sz", "sr"} {
		tab, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tab.Data.SetCompression(name == "sz")
		if err := tab.Data.AppendChunk(vector.NewChunk(ks, names)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT k, max(name) AS mx, count(*) AS n FROM T GROUP BY k"
	dq, rq := strings.ReplaceAll(q, " T", " sz"), strings.ReplaceAll(q, " T", " sr")
	db.Parallelism = 2
	if plan := planText(t, db, "EXPLAIN ANALYZE "+dq); !strings.Contains(plan, "dense=") {
		t.Fatalf("no dense table without a budget:\n%s", plan)
	}
	want := mustQuery(t, db, rq)
	for _, q := range []string{rq, dq} {
		got := difftest.Matrix(t, q, 512<<10, func(p difftest.Point) (*vector.Table, error) {
			if p.Budget > 0 && !p.Streamed {
				plan, _, err := queryAt(db, p, "EXPLAIN ANALYZE "+q)
				if err == nil && strings.Contains(strings.Join(plan.Cols[0].Strings(), "\n"), "dense=") {
					err = fmt.Errorf("a dense table under the budget")
				}
				if err != nil {
					return nil, err
				}
			}
			tab, rs, err := queryAt(db, p, q)
			if err == nil && p.Budget > 0 && !rs.SpillStats().Spilled() {
				err = fmt.Errorf("no spill under the budget")
			}
			return tab, err
		})
		if d := difftest.Diff(got, want); d != "" {
			t.Fatalf("%s differs from %s: %s", q, rq, d)
		}
	}
}
