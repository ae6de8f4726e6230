package engine

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"testing"
	"time"

	"vexdb/internal/core"
	"vexdb/internal/governor"
	"vexdb/internal/vector"
)

// sleepyDB is streamDB at one worker with a row-local UDF sleepy(x)
// that returns x after sleeping 5 µs for every row it is handed: a
// 2 048-row chunk takes ~10 ms, so checkpoints between chunks come
// ~10 ms apart and 30 000 rows take ~150 ms.
func sleepyDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := streamDB(t, rows)
	db.Parallelism = 1
	err := db.Registry().RegisterScalar(&core.ScalarFunc{
		Name:       "sleepy",
		Arity:      1,
		ReturnType: core.FixedReturn(vector.Int64),
		Parallel:   true,
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			time.Sleep(time.Duration(args[0].Len()) * 5 * time.Microsecond)
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// drainQuery runs q to the end and returns the first error, whether
// Query or the stream reports it.
func drainQuery(db *DB, q string) error {
	rs, err := db.Query(q)
	if err == nil {
		_, err = rs.Materialize()
	}
	return err
}

// TestGovernedQueryDeadline: with the one admission slot held, a
// queued query fails with ErrQueryTimeout near its 50 ms deadline and
// leaves the queue; and because admission wait and execution share
// that deadline, a query admitted after ~35 ms in the queue has only
// the ~15 ms left for an execution of ~30 ms — which a deadline
// restarted at admission would let finish.
func TestGovernedQueryDeadline(t *testing.T) {
	db := sleepyDB(t, 30_000)
	db.Gov = governor.New(governor.Config{MaxActive: 1})
	db.QueryTimeout = 50 * time.Millisecond
	hold, err := db.Gov.Admit(nil, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err = drainQuery(db, "SELECT count(*) AS n FROM ev")
	if elapsed := time.Since(start); !errors.Is(err, ErrQueryTimeout) || elapsed > 120*time.Millisecond {
		t.Fatalf("queued behind a held slot: err = %v after %v, want ErrQueryTimeout within 120ms", err, elapsed)
	}
	if st := db.Gov.Stats(); st.Queued != 0 {
		t.Fatalf("Queued = %d after the deadline, want 0", st.Queued)
	}

	time.AfterFunc(35*time.Millisecond, hold.Release)
	err = drainQuery(db, "SELECT sleepy(id) AS s FROM ev WHERE id < 6000")
	if st := db.Gov.Stats(); st.Admitted != 2 {
		t.Fatalf("Admitted = %d, want 2: the second query never left the queue", st.Admitted)
	}
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("admitted with ~15ms of the deadline left: err = %v, want ErrQueryTimeout", err)
	}
}

// TestJoinBuildHonoursQueryTimeout: a hash join drains its build side
// in Open, so the deadline must reach Open. The build side filters
// 30 000 rows through sleepy (~150 ms); the 50 ms deadline stops it at
// the next morsel.
func TestJoinBuildHonoursQueryTimeout(t *testing.T) {
	db := sleepyDB(t, 30_000)
	db.QueryTimeout = 50 * time.Millisecond
	start := time.Now()
	err := drainQuery(db, "SELECT count(*) AS n FROM grps g JOIN (SELECT grp FROM ev WHERE sleepy(id) >= 0) e ON g.grp = e.grp")
	if elapsed := time.Since(start); !errors.Is(err, ErrQueryTimeout) || elapsed > 120*time.Millisecond {
		t.Fatalf("err = %v after %v, want ErrQueryTimeout within 120ms", err, elapsed)
	}
}

// fanOutDB holds t: 3 600 rows of (k, v) with k = v % keys, so a probe
// row of t joined with itself on k has 3 600 / keys matches.
func fanOutDB(t *testing.T, keys int) *DB {
	t.Helper()
	db := New()
	db.TempDir = t.TempDir()
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	batchInsert(t, db, "t", 3600, func(i int) string { return fmt.Sprintf("(%d, %d)", i%keys, i) })
	return db
}

// TestFanOutJoinDeadline: with one key value every probe row of the
// self-join has 3 600 matches, 12 960 000 pairs in all. The join emits
// them a bounded chunk at a time, each a cancellation point, so a
// 100 ms deadline ends the query within 200 ms, in memory and spilled,
// at one worker and at two.
func TestFanOutJoinDeadline(t *testing.T) {
	db := fanOutDB(t, 1)
	db.QueryTimeout = 100 * time.Millisecond
	const q = "SELECT count(*) AS n FROM t a JOIN t b ON a.k = b.k"
	for _, budget := range []int64{0, 4 << 10} {
		for _, workers := range []int{1, 2} {
			sess := db.NewSession()
			sess.Settings.Workers, sess.Settings.Budget = workers, budget
			start := time.Now()
			rs, err := db.QuerySession(context.Background(), sess, q)
			if err == nil {
				_, err = rs.Materialize()
			}
			elapsed := time.Since(start)
			sess.Close()
			if !errors.Is(err, ErrQueryTimeout) || elapsed > 200*time.Millisecond {
				t.Fatalf("budget=%d workers=%d: err = %v after %v, want ErrQueryTimeout within 200ms", budget, workers, err, elapsed)
			}
		}
	}
}

// TestLimitStopsFanOutJoin: LIMIT 5 over a join whose probe rows have
// 60 matches each takes a chunk from the join and stops it. At two
// workers the join emits at most what the exchange above it claims
// ahead, five chunks, where it once emitted every match of whole probe
// chunks (112 080 rows).
func TestLimitStopsFanOutJoin(t *testing.T) {
	db := fanOutDB(t, 60)
	const q = "SELECT a.v, b.v FROM t a JOIN t b ON a.k = b.k LIMIT 5"
	act := regexp.MustCompile(`HashJoin .*act=(\d+)`)
	for _, ln := range mustQueryIn(t, db, Settings{Workers: 2}, "EXPLAIN ANALYZE "+q).Cols[0].Strings() {
		if m := act.FindStringSubmatch(ln); m != nil {
			if n, _ := strconv.Atoi(m[1]); n > 10240 {
				t.Fatalf("HashJoin emitted %d rows under LIMIT 5: %q", n, ln)
			}
			return
		}
	}
	t.Fatal("no HashJoin line with act=")
}
