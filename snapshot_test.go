package vexdb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Snapshot-isolation differential test: one writer streams INSERT
// batches while N readers stream full-table SELECTs. Every reader
// result must be byte-identical to some committed prefix — rows
// 0..k*batch-1 in insertion order for a whole number of committed
// statements k — never a torn statement, never reordered, never a row
// from the future appearing before an earlier row.
func TestSnapshotIsolationUnderIngest(t *testing.T) {
	const (
		batch      = 64
		statements = 60
	)
	values := func(base int) string {
		var sb strings.Builder
		sb.WriteString("INSERT INTO feed VALUES ")
		for i := 0; i < batch; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d)", base+i)
		}
		return sb.String()
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := OpenOptions(Options{Parallelism: workers})
			if _, err := db.Exec("CREATE TABLE feed (x BIGINT)"); err != nil {
				t.Fatal(err)
			}

			var done atomic.Bool
			var writerErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				for s := 0; s < statements; s++ {
					if _, err := db.Exec(values(s * batch)); err != nil {
						writerErr = err
						return
					}
				}
			}()

			const nReaders = 4
			readerErrs := make([]error, nReaders)
			var scans atomic.Int64
			for r := 0; r < nReaders; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for !done.Load() || scans.Load() < 3 {
						if err := verifyPrefix(db, batch); err != nil {
							readerErrs[r] = err
							return
						}
						scans.Add(1)
					}
				}(r)
			}
			wg.Wait()
			if writerErr != nil {
				t.Fatalf("writer: %v", writerErr)
			}
			for r, err := range readerErrs {
				if err != nil {
					t.Fatalf("reader %d: %v", r, err)
				}
			}
			// Final state is the full table.
			if err := verifyPrefix(db, batch); err != nil {
				t.Fatal(err)
			}
			if n := db.NumRows("feed"); n != batch*statements {
				t.Fatalf("final rows = %d, want %d", n, batch*statements)
			}
			t.Logf("%d consistent snapshot scans", scans.Load())
		})
	}
}

// verifyPrefix streams SELECT x FROM feed and checks the result is
// exactly 0..n-1 in order with n a multiple of batch (whole committed
// statements only).
func verifyPrefix(db *DB, batch int) error {
	rows, err := db.QueryStream("SELECT x FROM feed")
	if err != nil {
		return err
	}
	defer rows.Close()
	n := int64(0)
	for rows.Next() {
		if got := rows.Value(0).Int64(); got != n {
			return fmt.Errorf("row %d holds %d: torn or reordered snapshot", n, got)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if n%int64(batch) != 0 {
		return fmt.Errorf("saw %d rows: not a whole number of committed statements", n)
	}
	return nil
}

// The same invariant must hold while DELETE/UPDATE rewrites race the
// readers: a reader sees the table before or after a whole rewrite,
// never the truncated middle.
func TestSnapshotIsolationUnderRewrite(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE flip (x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO flip VALUES (0)")
	for i := 1; i < 500; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 40; i++ {
			// Each UPDATE rewrites the whole table, negating then
			// restoring: readers must only ever see all-original or
			// all-negated.
			if _, err := db.Exec("UPDATE flip SET x = 0 - x - 1"); err != nil {
				writerErr = err
				return
			}
		}
	}()

	var readerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			tab, err := db.Query("SELECT x FROM flip")
			if err != nil {
				readerErr = err
				return
			}
			if tab.NumRows() != 500 {
				readerErr = fmt.Errorf("saw %d rows mid-rewrite", tab.NumRows())
				return
			}
			xs := tab.Cols[0].Int64s()
			neg := xs[0] < 0
			for i, x := range xs {
				want := int64(i)
				if neg {
					want = -want - 1
				}
				if x != want {
					readerErr = fmt.Errorf("row %d = %d (neg=%v): torn rewrite", i, x, neg)
					return
				}
			}
		}
	}()
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if readerErr != nil {
		t.Fatalf("reader: %v", readerErr)
	}
}

// Writers to different tables proceed concurrently; this mostly
// exercises the shared-DML path under -race.
func TestConcurrentWritersDifferentTables(t *testing.T) {
	db := Open()
	const tables, rows = 8, 200
	for i := 0; i < tables; i++ {
		if _, err := db.Exec(fmt.Sprintf("CREATE TABLE w%d (x BIGINT)", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, tables)
	for i := 0; i < tables; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rows; r++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO w%d VALUES (%d)", i, r)); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	for i := 0; i < tables; i++ {
		if n := db.NumRows(fmt.Sprintf("w%d", i)); n != rows {
			t.Fatalf("table w%d has %d rows, want %d", i, n, rows)
		}
	}
}

// DELETE and UPDATE race INSERTs into the same table and the readers:
// each writer owns its batches, so a reader must see every batch whole
// (count and sum(v) multiples of the batch size) and the final table
// must be exactly what the writers' acknowledged statements left.
func TestSnapshotIsolationUnderMixedWrites(t *testing.T) {
	const batch, rounds, writers = 100, 30, 2
	db := Open()
	if _, err := db.Exec("CREATE TABLE mix (id BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var done atomic.Int32
	var wg sync.WaitGroup
	writerErrs := make([]error, writers)
	rows, sums := make([]int, writers), make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Add(1)
			var live []int // batch bases, oldest first; v of batch i is bumps[i]
			var bumps []int
			exec := func(q string) bool {
				if _, err := db.Exec(q); err != nil {
					writerErrs[w] = err
					return false
				}
				return true
			}
			for r := 0; r < rounds; r++ {
				base := (w+1)*1000000 + r*batch
				var sb strings.Builder
				fmt.Fprintf(&sb, "INSERT INTO mix VALUES (%d, 0)", base)
				for i := 1; i < batch; i++ {
					fmt.Fprintf(&sb, ", (%d, 0)", base+i)
				}
				if !exec(sb.String()) {
					return
				}
				live, bumps = append(live, base), append(bumps, 0)
				if r%3 == 1 {
					k := r % len(live)
					if !exec(fmt.Sprintf("UPDATE mix SET v = v + 1 WHERE id >= %d AND id < %d", live[k], live[k]+batch)) {
						return
					}
					bumps[k]++
				}
				if r%5 == 4 {
					if !exec(fmt.Sprintf("DELETE FROM mix WHERE id >= %d AND id < %d", live[0], live[0]+batch)) {
						return
					}
					live, bumps = live[1:], bumps[1:]
				}
			}
			rows[w] = batch * len(live)
			for _, b := range bumps {
				sums[w] += batch * b
			}
		}(w)
	}
	var readerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for done.Load() < writers {
			tab, err := db.Query("SELECT count(*) AS n, sum(v) AS s FROM mix")
			if err != nil {
				readerErr = err
				return
			}
			n, s := tab.Cols[0].Get(0).Int64(), tab.Cols[1].Get(0).Int64()
			if n%batch != 0 || s%batch != 0 {
				readerErr = fmt.Errorf("saw %d rows summing to %d: a batch torn", n, s)
				return
			}
		}
	}()
	wg.Wait()
	for w, err := range writerErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if readerErr != nil {
		t.Fatalf("reader: %v", readerErr)
	}
	tab, err := db.Query("SELECT count(*) AS n, sum(v) AS s FROM mix")
	if err != nil {
		t.Fatal(err)
	}
	if n, s := tab.Cols[0].Get(0).Int64(), tab.Cols[1].Get(0).Int64(); n != int64(rows[0]+rows[1]) || s != int64(sums[0]+sums[1]) {
		t.Fatalf("final table (%d rows, sum %d), acknowledged (%d, %d)", n, s, rows[0]+rows[1], sums[0]+sums[1])
	}
}
