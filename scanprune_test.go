package vexdb

import (
	"fmt"
	"testing"

	"vexdb/internal/difftest"
)

// loadSortedEvents bulk-loads n rows clustered on id (sorted), the
// shape zone-map pruning is designed for.
func loadSortedEvents(tb testing.TB, db *DB, n int) {
	tb.Helper()
	ids := make([]int64, n)
	grps := make([]int64, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		grps[i] = int64(i / 10_000)
		vals[i] = float64(i%1000) / 10
	}
	tab, err := NewTable([]string{"id", "grp", "val"}, []*Vector{
		NewVectorInt64(ids), NewVectorInt64(grps), NewVectorFloat64(vals)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateTableFrom("events", tab); err != nil {
		tb.Fatal(err)
	}
}

// CI smoke: a selective filter over 200k rows of sorted data must
// skip at least 80% of the segments and still return the right rows.
func TestScanPruningSmoke(t *testing.T) {
	const rows = 200_000
	db := Open()
	loadSortedEvents(t, db, rows)

	st, err := db.TableStats("events")
	if err != nil {
		t.Fatal(err)
	}
	if st.SealedSegments == 0 {
		t.Fatal("no sealed segments")
	}
	if st.CompressedBytes >= st.LogicalBytes {
		t.Fatalf("no compression: %d vs %d bytes", st.CompressedBytes, st.LogicalBytes)
	}

	r, err := db.QueryStream("SELECT count(*) AS n, min(id) AS mn FROM events WHERE id >= 195000")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Next() {
		t.Fatalf("no result row: %v", r.Err())
	}
	if n := r.Value(0).Int64(); n != 5000 {
		t.Fatalf("count = %d, want 5000", n)
	}
	if mn := r.Value(1).Int64(); mn != 195000 {
		t.Fatalf("min = %d", mn)
	}
	scanned, skipped := r.ScanStats()
	if skipped == 0 {
		t.Fatal("selective scan skipped 0 segments")
	}
	total := scanned + skipped
	if float64(skipped) < 0.8*float64(total) {
		t.Fatalf("skipped %d of %d segments, want >= 80%%", skipped, total)
	}
}

// benchSelective runs one selective aggregate over sorted data; with
// zone maps it touches ~3% of the segments.
func benchSelective(b *testing.B, rows int) {
	db := Open()
	loadSortedEvents(b, db, rows)
	q := "SELECT count(*) AS n, sum(val) AS s FROM events WHERE id >= 195000"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Column("n").Get(0).Int64() != int64(rows-195_000) {
			b.Fatal("wrong count")
		}
	}
	b.StopTimer()
	st, err := db.TableStats("events")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.SegmentsSkipped)/float64(b.N), "segs-skipped/op")
}

func BenchmarkSelectiveScanPruned(b *testing.B) { benchSelective(b, 200_000) }

// BenchmarkFullScanCompressed measures the non-selective decode path
// (every segment decoded each run), the worst case for compressed
// segments.
func BenchmarkFullScanCompressed(b *testing.B) {
	db := Open()
	loadSortedEvents(b, db, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("SELECT count(*) AS n, sum(val) AS s FROM events")
		if err != nil {
			b.Fatal(err)
		}
		if res.Column("n").Get(0).Int64() != 200_000 {
			b.Fatal("wrong count")
		}
	}
}

// sortBenchRows is the input of the ordering micros: larger than the
// caches, several merge batches per run.
const sortBenchRows = 256_000

// benchSort runs one ordering query at workers 1/2/4/8 and reports
// ns per input row next to allocs/op.
func benchSort(b *testing.B, db *DB, query string, wantRows int) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := withWorkers(b, db, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := s.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				if tab.NumRows() != wantRows {
					b.Fatal("short sort output")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sortBenchRows, "ns/row")
		})
	}
}

// BenchmarkMicroSortParallel: full ORDER BY on a DOUBLE key (1000
// distinct values) then a BIGINT: run generation + loser-tree merge.
// workers=1 is the serial sortOp.
func BenchmarkMicroSortParallel(b *testing.B) {
	db := Open()
	loadSortedEvents(b, db, sortBenchRows)
	benchSort(b, db, "SELECT id FROM events ORDER BY val, id", sortBenchRows)
}

// BenchmarkMicroSortLimitParallel: ORDER BY ... LIMIT 100, where run
// generation keeps only the rows that can still reach the top 100.
func BenchmarkMicroSortLimitParallel(b *testing.B) {
	db := Open()
	loadSortedEvents(b, db, sortBenchRows)
	benchSort(b, db, "SELECT id FROM events ORDER BY val DESC, id LIMIT 100", 100)
}

// BenchmarkMicroSortTwoIntKeys: two non-NULL BIGINT keys, the shape of
// the order-restoring sorts behind spilled joins and reordered plans
// (a nearly unique leading key in scattered order, a second key
// breaking its small ties).
func BenchmarkMicroSortTwoIntKeys(b *testing.B) {
	db := Open()
	loadSpillWorkload(b, db, sortBenchRows)
	benchSort(b, db, "SELECT event_id FROM events ORDER BY key, event_id", sortBenchRows)
}

// BenchmarkMicroSortStringKey: a low-cardinality VARCHAR key (17 short
// tags), then a BIGINT breaking its large ties.
func BenchmarkMicroSortStringKey(b *testing.B) {
	db := Open()
	loadSpillWorkload(b, db, sortBenchRows)
	benchSort(b, db, "SELECT event_id FROM events ORDER BY tag, event_id", sortBenchRows)
}

// BenchmarkMicroDistinctAggParallel: DISTINCT aggregates over 256k rows
// at workers 1/2/4/8, ns per input row next to allocs/op. grouped counts
// 1000 values in each of 26 groups (input sorted by group); global
// counts 192k values in one, unbudgeted and under a 1MB budget a tenth
// of the set, where it also reports the spill bytes written per query.
func BenchmarkMicroDistinctAggParallel(b *testing.B) {
	for _, v := range []struct {
		name, query string
		load        func(testing.TB, *DB, int)
		budget      int64
		want        int64
	}{
		{"grouped", "SELECT grp, count(DISTINCT val) AS n FROM events GROUP BY grp", loadSortedEvents, 0, 1000},
		{"global", "SELECT count(DISTINCT key) AS n FROM events", loadSpillWorkload, 0, sortBenchRows * 3 / 4},
		{"global-budget1MB", "SELECT count(DISTINCT key) AS n FROM events", loadSpillWorkload, 1 << 20, sortBenchRows * 3 / 4},
	} {
		db := OpenOptions(Options{MemoryBudget: v.budget, TempDir: b.TempDir()})
		v.load(b, db, sortBenchRows)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(b *testing.B) {
				s := withWorkers(b, db, workers)
				var spilled int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, err := s.QueryStream(v.query)
					if err != nil {
						b.Fatal(err)
					}
					tab, err := rows.NextTable()
					if err != nil {
						b.Fatal(err)
					}
					if n := tab.Cols[tab.NumCols()-1].Int64s()[0]; n != v.want {
						b.Fatalf("count(DISTINCT) = %d, want %d", n, v.want)
					}
					_, _, written, _ := rows.SpillStats()
					spilled += written
					rows.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sortBenchRows, "ns/row")
				if v.budget > 0 {
					b.ReportMetric(float64(spilled)/float64(b.N), "spill-B/op")
				}
			})
		}
	}
}

// Tables returned by NextTable must own their columns: retaining
// earlier tables across iterations must not see them change, at one
// worker and at two.
func TestNextTableRetainsDataAcrossIteration(t *testing.T) {
	db := Open()
	loadSortedEvents(t, db, 20_000)
	for _, workers := range []int{1, 2} {
		var next int64
		tables, err := drainTables(withWorkers(t, db, workers), "SELECT id FROM events")
		if err != nil {
			t.Fatal(err)
		}
		for ti, tab := range tables {
			for _, x := range tab.Cols[0].Int64s() {
				if x != next {
					t.Fatalf("workers=%d table %d: row value %d, want %d (buffer overwritten?)", workers, ti, x, next)
				}
				next++
			}
		}
		if next != 20_000 {
			t.Fatalf("workers=%d: iterated %d rows", workers, next)
		}
	}
}

// NextTable's clone is what keeps the store safe from its caller:
// executor chunks alias store-owned sealed raw vectors and the unsealed
// tail, and Int64s/Float64s hand out the backing slices. Writing into
// every column NextTable returned must not change what a later SELECT
// reads, at any point of difftest.Matrix.
func TestNextTableWritesDoNotReachTheStore(t *testing.T) {
	db := OpenOptions(Options{TempDir: t.TempDir()})
	loadSortedEvents(t, db, 20_000)
	const q = "SELECT id, grp, val FROM events"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := difftest.Matrix(t, q, 64<<10, func(p difftest.Point) (*Table, error) {
		tables, err := drainTables(sessionAt(db, p.Width, p.Budget, p.Planner), q)
		if err != nil {
			return nil, err
		}
		for _, tab := range tables {
			clear(tab.Cols[0].Int64s())
			clear(tab.Cols[1].Int64s())
			clear(tab.Cols[2].Float64s())
		}
		return at(db, q)(p)
	})
	if d := difftest.Diff(got, want); d != "" {
		t.Fatalf("a write into a NextTable column reached the store: %s", d)
	}
}

// drainTables streams q and returns every table NextTable hands out.
func drainTables(db *Session, q string) ([]*Table, error) {
	r, err := db.QueryStream(q)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var tables []*Table
	for {
		tab, err := r.NextTable()
		if tab == nil || err != nil {
			return tables, err
		}
		tables = append(tables, tab)
	}
}
