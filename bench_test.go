package vexdb_test

// Engine micro-ablations (join, aggregation, scan, model marshalling)
// over generated voter and event tables, at a reduced scale (20k
// voters x 24 columns) so the suite completes quickly; scanprune_test.go
// and spillsmoke_test.go hold the rest. The benchmark of record is
// bench/ (see bench/README.md).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vexdb"
	"vexdb/internal/workload"
	"vexdb/ml"
)

var (
	benchOnce sync.Once
	benchDB   *vexdb.DB
	benchErr  error
)

func benchConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Voters = 20_000
	cfg.Columns = 24
	cfg.Precincts = 500
	return cfg
}

// votersDB returns the shared database holding the generated voters and
// precincts tables.
func votersDB(b *testing.B) *vexdb.DB {
	b.Helper()
	benchOnce.Do(func() {
		cfg := benchConfig()
		precincts := workload.GeneratePrecincts(cfg)
		benchDB = vexdb.Open()
		if benchErr = benchDB.CreateTableFrom("precincts", workload.FrameToTable(precincts)); benchErr != nil {
			return
		}
		benchErr = benchDB.CreateTableFrom("voters", workload.FrameToTable(workload.GenerateVoters(cfg, precincts)))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDB
}

// ------------------------------------------------- micro ablations

func BenchmarkMicroHashJoin(b *testing.B) {
	db := votersDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := db.Query(`
			SELECT count(*) AS n FROM voters v
			JOIN precincts p ON v.precinct_id = p.precinct_id`)
		if err != nil {
			b.Fatal(err)
		}
		if tab.Column("n").Get(0).Int64() != int64(benchConfig().Voters) {
			b.Fatal("wrong join cardinality")
		}
	}
}

func BenchmarkMicroAggregate(b *testing.B) {
	db := votersDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(
			"SELECT precinct_id, count(*) AS n, avg(f0) AS m FROM voters GROUP BY precinct_id"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroScanFilter(b *testing.B) {
	db := votersDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT voter_id FROM voters WHERE f0 > 0.5"); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------- morsel-parallel scaling
//
// The parallel variants pin the engine's worker count and rerun the
// micro ablations, so the bench trajectory shows both the scaling
// curve (compare workers=1 against workers=N on a multi-core machine)
// and the allocation wins of the fixed-width key paths.

// benchParallelWorkers are the worker counts each parallel micro
// benchmark sweeps. workers=1 is the serial baseline.
var benchParallelWorkers = []int{1, 2, 4, 8}

// withWorkers opens a session of db at the given width through SET.
func withWorkers(b *testing.B, db *vexdb.DB, workers int) *vexdb.Session {
	s := db.Session()
	if _, err := s.Exec(fmt.Sprintf("SET workers = %d", workers)); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchQueryParallel(b *testing.B, query string, check func(tab interface{ NumRows() int }) bool) {
	db := votersDB(b)
	for _, workers := range benchParallelWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := withWorkers(b, db, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := s.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				if check != nil && !check(tab) {
					b.Fatal("wrong result")
				}
			}
		})
	}
}

func BenchmarkMicroAggregateParallel(b *testing.B) {
	benchQueryParallel(b,
		"SELECT precinct_id, count(*) AS n, avg(f0) AS m FROM voters GROUP BY precinct_id",
		func(tab interface{ NumRows() int }) bool { return tab.NumRows() == benchConfig().Precincts })
}

// The grouped-aggregation micros run over their own 256k-row events
// table: BenchmarkMicroAggregate groups 20k rows into a few hundred
// precincts and sees neither a table that outgrows the caches nor the
// merge of per-worker tables.
const aggBenchRows = 256_000

var (
	aggBenchOnce sync.Once
	aggBenchDB   *vexdb.DB
	aggBenchErr  error
)

func aggBenchEnv(b *testing.B) *vexdb.DB {
	b.Helper()
	aggBenchOnce.Do(func() {
		hi := make([]int64, aggBenchRows)
		lo := make([]int64, aggBenchRows)
		id := make([]int64, aggBenchRows)
		w := make([]float64, aggBenchRows)
		cat := make([]string, aggBenchRows)
		shift := make([]int64, aggBenchRows)
		x := uint64(1)
		next := func(n int) int { // xorshift: fixed data on every run
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		for i := range hi {
			id[i] = int64(i)
			hi[i] = int64(next(aggBenchRows / 4))
			lo[i] = int64(next(1000))
			w[i] = float64(next(1<<16)) / 16
			cat[i] = fmt.Sprintf("c%02d", next(64))
			if shift[i] = lo[i] % 64; i >= aggBenchRows/2 { // derived: the other columns keep their values
				shift[i] = 64 + hi[i]
			}
		}
		tab, err := vexdb.NewTable([]string{"id", "hi", "lo", "w", "cat", "shift"}, []*vexdb.Vector{
			vexdb.NewVectorInt64(id), vexdb.NewVectorInt64(hi), vexdb.NewVectorInt64(lo),
			vexdb.NewVectorFloat64(w), vexdb.NewVectorString(cat), vexdb.NewVectorInt64(shift)})
		if err != nil {
			aggBenchErr = err
			return
		}
		aggBenchDB = vexdb.Open()
		aggBenchErr = aggBenchDB.CreateTableFrom("events", tab)
	})
	if aggBenchErr != nil {
		b.Fatal(aggBenchErr)
	}
	return aggBenchDB
}

func benchAggregate(b *testing.B, query string, minGroups int) {
	db := aggBenchEnv(b)
	for _, workers := range benchParallelWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := withWorkers(b, db, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := s.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				if tab.NumRows() < minGroups {
					b.Fatalf("%d groups, want at least %d", tab.NumRows(), minGroups)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/aggBenchRows, "ns/row")
		})
	}
}

// BenchmarkMicroAggregateHighCard: ~64k groups on one BIGINT key.
func BenchmarkMicroAggregateHighCard(b *testing.B) {
	benchAggregate(b, "SELECT hi, count(*) AS n, sum(w) AS sw, max(id) AS last FROM events GROUP BY hi", 60_000)
}

// BenchmarkMicroAggregateIntStrKey: ~64k groups on a BIGINT + VARCHAR key.
func BenchmarkMicroAggregateIntStrKey(b *testing.B) {
	benchAggregate(b, "SELECT lo, cat, count(*) AS n, sum(w) AS sw, count(id) AS ni FROM events GROUP BY lo, cat", 60_000)
}

// BenchmarkMicroAggregateLowCard: 64 groups on one VARCHAR key.
func BenchmarkMicroAggregateLowCard(b *testing.B) {
	benchAggregate(b, "SELECT cat, count(*) AS n, sum(w) AS sw, min(w) AS mn, avg(w) AS m FROM events GROUP BY cat", 64)
}

// BenchmarkMicroAggregateShift: one BIGINT key whose cardinality
// changes mid-input — 64 groups over the first half of the rows, ~55k
// over the second — so consumers that pre-aggregated usefully must
// notice when they no longer do.
func BenchmarkMicroAggregateShift(b *testing.B) {
	benchAggregate(b, "SELECT shift, count(*) AS n, sum(w) AS sw, max(id) AS last FROM events GROUP BY shift", 50_000)
}

func BenchmarkMicroHashJoinParallel(b *testing.B) {
	benchQueryParallel(b, `
		SELECT count(*) AS n FROM voters v
		JOIN precincts p ON v.precinct_id = p.precinct_id`,
		func(tab interface{ NumRows() int }) bool { return tab.NumRows() == 1 })
}

// BenchmarkMicroHashJoinMultiKey: 256k probe rows against a 64k-row
// build side (one row per key) on a BIGINT + VARCHAR key, at workers
// 1/2/4/8, in memory and under a 1MB budget a third of the build side,
// where the join must spill and also reports the bytes it wrote.
func BenchmarkMicroHashJoinMultiKey(b *testing.B) {
	const rows, los, cats = 256_000, 1000, 64
	for _, v := range []struct {
		name   string
		budget int64
	}{{"mem", 0}, {"budget1MB", 1 << 20}} {
		db := vexdb.OpenOptions(vexdb.Options{MemoryBudget: v.budget, TempDir: b.TempDir()})
		lo, cat := make([]int64, rows), make([]string, rows)
		x := uint64(1)
		for i := range lo {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			lo[i], cat[i] = int64(x%los), fmt.Sprintf("c%02d", (x>>32)%cats)
		}
		dlo, dcat, dv := make([]int64, los*cats), make([]string, los*cats), make([]int64, los*cats)
		for i := range dlo {
			dlo[i], dcat[i], dv[i] = int64(i/cats), fmt.Sprintf("c%02d", i%cats), 1
		}
		for name, cols := range map[string][]*vexdb.Vector{
			"events": {vexdb.NewVectorInt64(lo), vexdb.NewVectorString(cat)},
			"dim":    {vexdb.NewVectorInt64(dlo), vexdb.NewVectorString(dcat), vexdb.NewVectorInt64(dv)},
		} {
			tab, err := vexdb.NewTable([]string{"lo", "cat", "v"}[:len(cols)], cols)
			if err == nil {
				err = db.CreateTableFrom(name, tab)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, workers := range benchParallelWorkers {
			b.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(b *testing.B) {
				s := withWorkers(b, db, workers)
				var spilled int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := s.QueryStream("SELECT sum(d.v) AS n FROM events e JOIN dim d ON e.lo = d.lo AND e.cat = d.cat")
					if err != nil {
						b.Fatal(err)
					}
					tab, err := r.NextTable()
					if err != nil {
						b.Fatal(err)
					}
					if n := tab.Cols[0].Int64s()[0]; n != rows {
						b.Fatalf("%d joined rows, want %d", n, rows)
					}
					_, _, written, _ := r.SpillStats()
					spilled += written
					r.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
				if v.budget > 0 {
					if spilled == 0 {
						b.Fatal("the join did not spill")
					}
					b.ReportMetric(float64(spilled)/float64(b.N), "spill-B/op")
				}
			})
		}
	}
}

func BenchmarkMicroScanFilterParallel(b *testing.B) {
	benchQueryParallel(b, "SELECT voter_id FROM voters WHERE f0 > 0.5", nil)
}

// BenchmarkInsertValues is the write path of a client streaming rows
// in: one 1 000-row INSERT … VALUES of four literal columns (the
// bench/ serve_mixed shape) per op into an in-memory table, parse,
// bind and append.
func BenchmarkInsertValues(b *testing.B) {
	db := vexdb.Open()
	if _, err := db.Exec("CREATE TABLE ingest (id BIGINT, k BIGINT, val BIGINT, note VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	const rows = 1000
	var sb strings.Builder
	sb.WriteString("INSERT INTO ingest VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, 'note-%03d')", i, i%16, i%100, i%1000)
	}
	text := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(text); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkMicroModelMarshal(b *testing.B) {
	f := ml.NewRandomForest(16)
	n := 2000
	x0 := make([]float64, n)
	y := make([]int, n)
	for i := range x0 {
		x0[i] = float64(i%100) / 100
		y[i] = i % 2
	}
	if err := f.Fit([][]float64{x0}, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := ml.Marshal(f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ml.Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}
