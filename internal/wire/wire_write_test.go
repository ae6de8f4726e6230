package wire

import (
	"fmt"
	"sync"
	"testing"

	"vexdb/internal/engine"
	"vexdb/internal/wal"
)

// Concurrent wire writers: many connections INSERT into the same
// durable table at once. Writes are no longer serialized behind reads
// at an engine-wide lock — each statement WAL-logs, applies under the
// table's write lock, and group-commits — and every acknowledged row
// must be present exactly once afterwards.
func TestConcurrentWireWriters(t *testing.T) {
	db := engine.New()
	if err := db.EnableWAL(t.TempDir(), wal.SyncGroup); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE ingest (writer BIGINT, seq BIGINT)"); err != nil {
		t.Fatal(err)
	}
	_, addr := serve(t, db)

	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				res, err := c.Exec(fmt.Sprintf("INSERT INTO ingest VALUES (%d, %d)", w, i))
				if err != nil {
					errs[w] = err
					return
				}
				if res != 1 {
					errs[w] = fmt.Errorf("insert acked %d rows", res)
					return
				}
			}
		}(w)
	}

	// Readers stream concurrently: every result must hold complete
	// statements only (each single-row INSERT is atomic, so any row
	// count is fine, but no row may be torn or duplicated).
	var rg sync.WaitGroup
	readErrs := make([]error, 2)
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			c, err := Dial(addr)
			if err != nil {
				readErrs[r] = err
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				tab, err := c.Query(Columnar, "SELECT writer, seq FROM ingest")
				if err != nil {
					readErrs[r] = err
					return
				}
				seen := make(map[[2]int64]bool, tab.NumRows())
				for i := 0; i < tab.NumRows(); i++ {
					k := [2]int64{tab.Cols[0].Get(i).Int64(), tab.Cols[1].Get(i).Int64()}
					if seen[k] {
						readErrs[r] = fmt.Errorf("duplicate row %v mid-ingest", k)
						return
					}
					seen[k] = true
				}
			}
		}(r)
	}
	wg.Wait()
	rg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	for r, err := range readErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}

	c := dial(t, addr)
	tab, err := c.Query(Columnar, "SELECT writer, seq FROM ingest ORDER BY writer, seq")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != writers*perWriter {
		t.Fatalf("final rows = %d, want %d", tab.NumRows(), writers*perWriter)
	}
	for i := 0; i < tab.NumRows(); i++ {
		w, s := int64(i/perWriter), int64(i%perWriter)
		if tab.Cols[0].Get(i).Int64() != w || tab.Cols[1].Get(i).Int64() != s {
			t.Fatalf("row %d = (%d,%d), want (%d,%d)", i,
				tab.Cols[0].Get(i).Int64(), tab.Cols[1].Get(i).Int64(), w, s)
		}
	}
}
