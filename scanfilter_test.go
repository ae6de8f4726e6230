package vexdb

import (
	"fmt"
	"math/rand"
	"testing"

	"vexdb/internal/difftest"
)

// loadFilterEvents bulk-loads n rows shaped like the benchmark's events
// table: id ascending, lo uniform in [0, 1000), hi wide, w a dyadic
// DOUBLE in [0, 4096). The BIGINT columns seal frame-of-reference
// encoded, so a scan decodes them; w stays raw.
func loadFilterEvents(tb testing.TB, db *DB, n int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	id, lo, hi := make([]int64, n), make([]int64, n), make([]int64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		id[i] = int64(i)
		lo[i] = int64(rng.Intn(1000))
		hi[i] = int64(rng.Intn(n/4 + 1))
		w[i] = float64(rng.Intn(1<<16)) / 16
	}
	tab, err := NewTable([]string{"id", "lo", "hi", "w"}, []*Vector{
		NewVectorInt64(id), NewVectorInt64(lo), NewVectorInt64(hi), NewVectorFloat64(w)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateTableFrom("events", tab); err != nil {
		tb.Fatal(err)
	}
}

// TestMorselFilterChunksOwnTheirColumns: morsel workers decode each
// segment into buffers they reuse, so a streamed chunk that aliased one
// would change under the consumer's feet. Two filtered streams — one
// keeping a few rows of every segment, one keeping whole segments —
// run through difftest.Matrix, whose streamed points retain every chunk
// until the stream ends before comparing it with the oracle.
func TestMorselFilterChunksOwnTheirColumns(t *testing.T) {
	db := OpenOptions(Options{TempDir: t.TempDir()})
	loadFilterEvents(t, db, 40_000)
	for _, q := range []string{
		"SELECT id, hi, w FROM events WHERE lo < 40 AND w >= 2048",
		"SELECT id, lo, hi FROM events WHERE id >= 3000 AND lo >= 0",
	} {
		if n := difftest.Matrix(t, q, 64<<10, at(db, q)).NumRows(); n == 0 {
			t.Fatalf("%s: no rows", q)
		}
	}
}

// BenchmarkMicroScanFilterSelective: two conjuncts keeping ~4% of
// 256k rows in compressed segments, at workers 1 and 2 — the WHERE
// path of selection kernels over per-worker decode buffers.
func BenchmarkMicroScanFilterSelective(b *testing.B) {
	const rows = 256_000
	db := Open()
	loadFilterEvents(b, db, rows)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := withWorkers(b, db, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab, err := s.Query("SELECT id, hi, w FROM events WHERE lo < 80 AND w >= 2048")
				if err != nil {
					b.Fatal(err)
				}
				if n := tab.NumRows(); n < rows/40 || n > rows/20 {
					b.Fatalf("kept %d rows", n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
