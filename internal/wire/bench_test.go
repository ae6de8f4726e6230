package wire

import (
	"strings"
	"testing"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/engine"
	"vexdb/internal/vector"
)

// benchServer loads a wide table through the catalog and serves it.
func benchServer(b *testing.B, rows int) (*engine.DB, string, func()) {
	b.Helper()
	db := engine.New()
	db.Parallelism = 4
	schema := catalog.Schema{
		{Name: "id", Type: vector.Int64},
		{Name: "score", Type: vector.Float64},
		{Name: "pad", Type: vector.String},
	}
	ct, err := db.Catalog().CreateTable("big", schema)
	if err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("p", 32)
	for lo := 0; lo < rows; lo += vector.DefaultChunkSize {
		hi := lo + vector.DefaultChunkSize
		if hi > rows {
			hi = rows
		}
		ids := make([]int64, hi-lo)
		scores := make([]float64, hi-lo)
		pads := make([]string, hi-lo)
		for i := range ids {
			ids[i] = int64(lo + i)
			scores[i] = float64(lo+i) * 0.25
			pads[i] = pad
		}
		ch := vector.NewChunk(vector.FromInt64s(ids), vector.FromFloat64s(scores), vector.FromStrings(pads))
		if err := ct.Data.AppendChunk(ch); err != nil {
			b.Fatal(err)
		}
	}
	srv, addr := serve(b, db)
	return db, addr, srv.Close
}

// BenchmarkTimeToFirstChunk measures the latency from sending a query
// over a large table to decoding its first chunk — with chunk-framed
// streaming this is independent of the total result size. The full
// stream is drained each iteration so the connection can be reused.
func BenchmarkTimeToFirstChunk(b *testing.B) {
	const rows = 100_000
	_, addr, stop := benchServer(b, rows)
	defer stop()
	for _, proto := range []Protocol{Columnar, BinaryRows, TextRows} {
		b.Run(proto.String(), func(b *testing.B) {
			c := dial(b, addr)
			var firstChunk time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				st, err := c.Stream(proto, "SELECT id, score, pad FROM big")
				if err != nil {
					b.Fatal(err)
				}
				ch, err := st.Next()
				if err != nil || ch == nil {
					b.Fatalf("first chunk: %v %v", ch, err)
				}
				firstChunk += time.Since(start)
				got := ch.NumRows()
				for {
					ch, err := st.Next()
					if err != nil {
						b.Fatal(err)
					}
					if ch == nil {
						break
					}
					got += ch.NumRows()
				}
				if got != rows {
					b.Fatalf("%d rows, want %d", got, rows)
				}
			}
			b.ReportMetric(float64(firstChunk.Nanoseconds())/float64(b.N), "ns-to-first-chunk")
		})
	}
}

// BenchmarkStreamLargeResult drains a ~7MB result chunk by chunk
// without client-side materialization: allocs/op tracks the per-chunk
// codec cost, and server-side buffering stays O(chunk × workers)
// however large the table is.
func BenchmarkStreamLargeResult(b *testing.B) {
	const rows = 200_000
	_, addr, stop := benchServer(b, rows)
	defer stop()
	c := dial(b, addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Stream(Columnar, "SELECT id, score, pad FROM big")
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
			ch, err := st.Next()
			if err != nil {
				b.Fatal(err)
			}
			if ch == nil {
				break
			}
			got += ch.NumRows()
		}
		if got != rows {
			b.Fatalf("%d rows, want %d", got, rows)
		}
	}
}

// BenchmarkLimitOverLargeTable shows early termination through the
// wire path: LIMIT 10 over 200k rows must not scan or ship the table.
func BenchmarkLimitOverLargeTable(b *testing.B) {
	_, addr, stop := benchServer(b, 200_000)
	defer stop()
	c := dial(b, addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := c.Query(Columnar, "SELECT id, pad FROM big LIMIT 10")
		if err != nil {
			b.Fatal(err)
		}
		if tab.NumRows() != 10 {
			b.Fatalf("%d rows", tab.NumRows())
		}
	}
}
