package vexdb

import (
	"fmt"
	"os"
	"testing"

	"vexdb/internal/difftest"
)

// loadSpillWorkload loads a 200k-row high-cardinality events table
// (plus a dimension table for the join) through the public API. The
// shape mirrors workload.GenerateEvents (which datagen -events uses),
// regenerated here because the workload package imports vexdb.
func loadSpillWorkload(tb testing.TB, db *DB, rows int) {
	tb.Helper()
	keys := rows * 3 / 4
	ids := make([]int64, rows)
	ks := make([]int64, rows)
	vals := make([]float64, rows)
	tags := make([]string, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		ks[i] = int64((uint64(i) * 2654435761) % uint64(keys))
		vals[i] = float64((i*31)%4096) / 16 // dyadic: exact float sums
		tags[i] = fmt.Sprintf("t%d", i%17)
	}
	ev, err := NewTable([]string{"event_id", "key", "val", "tag"}, []*Vector{
		NewVectorInt64(ids), NewVectorInt64(ks), NewVectorFloat64(vals), NewVectorString(tags)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateTableFrom("events", ev); err != nil {
		tb.Fatal(err)
	}
	nDim := rows / 2
	dks := make([]int64, nDim)
	dws := make([]float64, nDim)
	for i := range dks {
		dks[i] = int64(i)
		dws[i] = float64(i) / 4
	}
	dim, err := NewTable([]string{"k", "w"}, []*Vector{NewVectorInt64(dks), NewVectorFloat64(dws)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateTableFrom("dim", dim); err != nil {
		tb.Fatal(err)
	}
}

// spillSmokeQueries: a high-cardinality GROUP BY, a hash join with a
// large build side, and a full ORDER BY — the three blocking
// operators the memory budget governs.
var spillSmokeQueries = []string{
	"SELECT key, count(*) AS n, sum(val) AS s, min(tag) AS mt FROM events GROUP BY key",
	// events is the build (right) side: 200k rows, well over 4MB.
	"SELECT d.k, d.w, e.event_id, e.val FROM dim d JOIN events e ON d.k = e.key",
	"SELECT event_id, key, val FROM events ORDER BY val, event_id",
}

// TestSpillSmoke is the acceptance criterion (and the CI spill
// smoke): GROUP BY / hash join / ORDER BY over 200k high-cardinality
// rows return the same bytes at every point of difftest.Matrix; under
// its 4MB budget each spills (nonzero SpillStats, bytes written and
// read), without it none does, and TempDir is empty after every query.
func TestSpillSmoke(t *testing.T) {
	const rows = 200_000
	tempDir := t.TempDir()
	db := OpenOptions(Options{TempDir: tempDir})
	loadSpillWorkload(t, db, rows)
	for _, q := range spillSmokeQueries {
		difftest.Matrix(t, q, 4<<20, func(p difftest.Point) (*Table, error) {
			tab, rs, err := queryAt(db, p, q)
			if err != nil {
				return nil, err
			}
			if rs != nil {
				parts, runs, w, r := rs.SpillStats()
				if p.Budget > 0 && (parts+runs == 0 || w == 0 || r == 0) || p.Budget == 0 && parts+runs+w+r != 0 {
					return nil, fmt.Errorf("SpillStats partitions=%d runs=%d written=%d read=%d", parts, runs, w, r)
				}
			}
			if ents, err := os.ReadDir(tempDir); err != nil || len(ents) != 0 {
				return nil, fmt.Errorf("%d entries left in temp dir (%v)", len(ents), err)
			}
			return tab, nil
		})
	}
}

// BenchmarkMicroAggregateSpill measures the 200k-row high-cardinality
// GROUP BY at an unlimited budget vs. a 4MB budget (grace-partitioned
// out-of-core aggregation).
func BenchmarkMicroAggregateSpill(b *testing.B) {
	const rows = 200_000
	for _, budget := range []int64{0, 4 << 20} {
		name := "unlimited"
		if budget > 0 {
			name = "budget4MB"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			db := OpenOptions(Options{MemoryBudget: budget, TempDir: dir})
			loadSpillWorkload(b, db, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := db.Query("SELECT key, count(*) AS n, sum(val) AS s FROM events GROUP BY key")
				if err != nil {
					b.Fatal(err)
				}
				if tab.NumRows() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkMicroHashJoinSpill measures a 256k-row probe side joined to a
// 128k-row build side (every key twice) under a 1MB budget, a fraction
// of the build side, where routing, evicting and reloading partitions is
// the join's work: on scrambled keys (i*7919) and on keys that differ
// only above bit 44 (i<<44: constant low hash bits), at workers 1 and 2.
// spill-B/op is what the query wrote.
func BenchmarkMicroHashJoinSpill(b *testing.B) {
	const buildRows, probeRows = 128 << 10, 256 << 10
	for _, v := range []struct {
		name string
		key  func(i int) int64
	}{
		{"scrambled", func(i int) int64 { return int64(i) * 7919 }},
		{"shifted", func(i int) int64 { return int64(i) << 44 }},
	} {
		db := OpenOptions(Options{MemoryBudget: 1 << 20, TempDir: b.TempDir()})
		for name, rows := range map[string]int{"build": buildRows, "probe": probeRows} {
			ks, ones := make([]int64, rows), make([]int64, rows)
			for i := range ks {
				ks[i], ones[i] = v.key(i%buildRows), 1
			}
			tab, err := NewTable([]string{"k", "v"}, []*Vector{NewVectorInt64(ks), NewVectorInt64(ones)})
			if err == nil {
				err = db.CreateTableFrom(name, tab)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(b *testing.B) {
				db.SetParallelism(workers)
				var spilled int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, err := db.QueryStream("SELECT sum(b.v) AS n FROM probe p JOIN build b ON p.k = b.k")
					if err != nil {
						b.Fatal(err)
					}
					tab, err := rows.NextTable()
					if err != nil {
						b.Fatal(err)
					}
					if n := tab.Cols[0].Int64s()[0]; n != probeRows {
						b.Fatalf("%d joined rows, want %d", n, probeRows)
					}
					_, _, written, _ := rows.SpillStats()
					spilled += written
					rows.Close()
				}
				if spilled == 0 {
					b.Fatal("the join did not spill")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/probeRows, "ns/row")
				b.ReportMetric(float64(spilled)/float64(b.N), "spill-B/op")
			})
		}
	}
}

// BenchmarkMicroSortSpill measures the streamed full ORDER BY at an
// unlimited vs. 4MB budget (external sorted runs + streaming merge) at
// workers 1 and 2.
func BenchmarkMicroSortSpill(b *testing.B) {
	for _, budget := range []int64{0, 4 << 20} {
		name := "unlimited"
		if budget > 0 {
			name = "budget4MB"
		}
		db := OpenOptions(Options{MemoryBudget: budget, TempDir: b.TempDir()})
		loadSpillWorkload(b, db, sortBenchRows)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				db.SetParallelism(workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n := 0
					rows, err := db.QueryStream("SELECT event_id, val FROM events ORDER BY val, event_id")
					if err != nil {
						b.Fatal(err)
					}
					for rows.Next() {
						n++
					}
					if err := rows.Err(); err != nil {
						b.Fatal(err)
					}
					rows.Close()
					if n == 0 {
						b.Fatal("empty result")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sortBenchRows, "ns/row")
			})
		}
	}
}
