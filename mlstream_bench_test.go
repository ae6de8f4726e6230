package vexdb

import (
	"fmt"
	"testing"
)

// benchPredictQuery scores 200k rows through either the streamed
// vectorized predict or the serial baseline registered by
// registerSerialPredict. Run with:
//
//	go test -bench BenchmarkPredict -run xx .
func benchPredictQuery(b *testing.B, fn string) {
	db := newMLStreamDB(b, 200000)
	registerSerialPredict(b, db)
	db.SetParallelism(1)
	// Score against the voter pipeline's model shape
	// (workload.DefaultConfig): a 16-tree forest, not the single tree
	// the correctness tests use.
	if _, err := db.Exec(`CREATE TABLE mrf AS SELECT model FROM train_rf((SELECT f0, f1, f2, label FROM pts WHERE id < 2000), 16, 10, 1)`); err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf(`SELECT count(*) AS n FROM (SELECT %s(model, f0, f1, f2) AS p FROM pts, mrf) q WHERE q.p >= 0`, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if tab.Cols[0].Int64s()[0] != 200000 {
			b.Fatal("wrong count")
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/200000, "ns/row")
}

func BenchmarkPredictStreamed(b *testing.B) { benchPredictQuery(b, "predict") }
func BenchmarkPredictSerial(b *testing.B)   { benchPredictQuery(b, "predict_serial") }
