package vexdb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/governor"
	"vexdb/internal/vector"
	"vexdb/internal/wire"
	"vexdb/internal/workload"
)

// stormClasses is the mixed read traffic. Every class returns exact
// (integer/string) values in a deterministic order, so any admitted run
// — whatever its worker grant — must fingerprint like the serial one.
var stormClasses = []struct{ name, sql string }{
	{"scan", "SELECT event_id, key, tag FROM events WHERE key % 7 = 0"},
	{"agg", "SELECT tag, count(*) AS n, min(key) AS lo, max(key) AS hi FROM events GROUP BY tag ORDER BY tag"},
	{"join", "SELECT l.precinct_id, count(*) AS n FROM labeled l JOIN precincts p ON l.precinct_id = p.precinct_id GROUP BY l.precinct_id ORDER BY l.precinct_id"},
	{"distinct", "SELECT count(DISTINCT key) AS n FROM events"},
	{"predict", "SELECT l.id, predict(m.model, l.f0, l.f1, l.f2, l.f3) AS pred FROM labeled l, rf_model m WHERE l.id % 16 = 0"},
}

// fingerprintChunk folds every value of every row into h, in order.
func fingerprintChunk(h interface{ Write([]byte) (int, error) }, ch *vector.Chunk) {
	for r := 0; r < ch.NumRows(); r++ {
		for c := 0; c < ch.NumCols(); c++ {
			h.Write([]byte(ch.Col(c).Get(r).String()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
}

// streamFingerprint streams sql over c and fingerprints the result,
// sleeping chunkDelay after each chunk (a slow reader holding its
// lease).
func streamFingerprint(c *wire.Client, sql string, chunkDelay time.Duration) (uint64, error) {
	st, err := c.Stream(wire.Columnar, sql)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for {
		ch, err := st.Next()
		if err != nil {
			st.Close()
			return 0, err
		}
		if ch == nil {
			return h.Sum64(), st.Close()
		}
		fingerprintChunk(h, ch)
		time.Sleep(chunkDelay)
	}
}

func isOverloaded(err error) bool {
	var ov *governor.OverloadedError
	return errors.As(err, &ov)
}

// TestMixedStormMatchesSerial drives a governed server with tight
// admission (one active query, one queue slot) with the five query
// classes from six read connections, interleaved with the four
// injected faults (oversized request, mid-stream disconnect, slow
// reader, client cancel), while two writer connections stream INSERTs
// into their own table. Every admitted query must fingerprint like
// the serial run, every rejection must be the typed OverloadedError,
// the ingest table must hold exactly the acknowledged statements, and
// after Shutdown no lease, spill file or goroutine may remain.
func TestMixedStormMatchesSerial(t *testing.T) {
	const (
		readers, requests = 6, 20
		writers, inserts  = 2, 25
		pool              = 32 << 10
	)
	baseGoroutines := runtime.NumGoroutine()
	spillDir := filepath.Join(t.TempDir(), "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	db := OpenOptions(Options{
		Parallelism:  1,
		TempDir:      spillDir,
		QueryTimeout: 30 * time.Second,
		Governor: &GovernorConfig{
			PoolBytes: pool, MaxActive: 1, MaxQueued: 1, RetryAfter: time.Millisecond,
		},
	})
	events := workload.GenerateEvents(20_000, 2501, 1.1, 1)
	if err := db.CreateTableFrom("events", workload.FrameToTable(events)); err != nil {
		t.Fatal(err)
	}
	cfg := workload.TestConfig()
	precincts := workload.GeneratePrecincts(cfg)
	if err := db.CreateTableFrom("precincts", workload.FrameToTable(precincts)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFrom("voters", workload.FrameToTable(workload.GenerateVoters(cfg, precincts))); err != nil {
		t.Fatal(err)
	}
	exec := func(q string) {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	exec(`CREATE TABLE labeled AS
		SELECT v.voter_id AS id, v.precinct_id AS precinct_id, v.f0, v.f1, v.f2, v.f3,
		       weighted_label(v.voter_id, CAST(p.dem_votes AS DOUBLE), CAST(p.rep_votes AS DOUBLE), 1) AS label
		FROM voters v JOIN precincts p ON v.precinct_id = p.precinct_id`)
	exec(fmt.Sprintf(`CREATE TABLE rf_model AS
		SELECT * FROM train_rf((SELECT f0, f1, f2, f3, label FROM labeled WHERE id %% %d <> 0), %d, %d, 1)`,
		cfg.TestModulus, cfg.Estimators, cfg.MaxDepth))
	exec("CREATE TABLE ingest (writer BIGINT, seq BIGINT)")

	// The serial baseline, in process at one worker; the storm then runs
	// at four. The pool is small enough that some class spills, so the
	// empty spill dir after shutdown means something.
	want := make([]uint64, len(stormClasses))
	var spilled int64
	for i, q := range stormClasses {
		rows, err := db.QueryStream(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		h := fnv.New64a()
		for {
			tab, err := rows.NextTable()
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			if tab == nil {
				break
			}
			fingerprintChunk(h, tab.Chunk())
		}
		parts, runs, _, _ := rows.SpillStats()
		spilled += parts + runs
		rows.Close()
		want[i] = h.Sum64()
	}
	if spilled == 0 {
		t.Fatal("no query class spilled under the pool")
	}
	db.SetParallelism(4)

	srv := wire.NewServer(db.Engine())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var admitted, rejected, acked atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Errorf("reader %d: %v", id, err)
				return
			}
			defer c.Close()
			for r := 0; r < requests; r++ {
				if (r+id)%3 == 2 {
					kind := (r/3 + id) % 4 // every reader injects all four
					if err := injectFault(addr, c, kind); err != nil {
						t.Errorf("reader %d fault %d: %v", id, kind, err)
						return
					}
					continue
				}
				qi := (r + id) % len(stormClasses)
				fp, err := streamFingerprint(c, stormClasses[qi].sql, 0)
				switch {
				case isOverloaded(err):
					rejected.Add(1)
				case err != nil:
					t.Errorf("reader %d %s: %v", id, stormClasses[qi].name, err)
					return
				case fp != want[qi]:
					t.Errorf("reader %d %s: fingerprint %x, serial %x", id, stormClasses[qi].name, fp, want[qi])
				default:
					admitted.Add(1)
				}
			}
		}(id)
	}
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Errorf("writer %d: %v", id, err)
				return
			}
			defer c.Close()
			for i := 0; i < inserts; {
				n, err := c.Exec(fmt.Sprintf("INSERT INTO ingest VALUES (%d, %d)", id, i))
				switch {
				case isOverloaded(err):
					rejected.Add(1)
					continue // retried until admitted
				case err != nil:
					t.Errorf("writer %d: %v", id, err)
					return
				case n != 1:
					t.Errorf("writer %d: insert acked %d rows", id, n)
					return
				}
				acked.Add(1)
				i++
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if admitted.Load() == 0 || rejected.Load() == 0 {
		t.Errorf("%d queries admitted, %d rejected: want both", admitted.Load(), rejected.Load())
	}
	if got := db.NumRows("ingest"); int64(got) != acked.Load() {
		t.Errorf("ingest holds %d rows, %d statements acknowledged", got, acked.Load())
	}
	t.Logf("%d admitted, %d rejected, %d inserts acknowledged", admitted.Load(), rejected.Load(), acked.Load())

	srv.Shutdown(30 * time.Second)
	st := db.GovernorStats()
	if st.LeasedBytes != 0 || st.Active != 0 || st.PeakLeasedBytes > pool {
		t.Errorf("governor after shutdown: %d active, %d leased, peak %d of %d", st.Active, st.LeasedBytes, st.PeakLeasedBytes, pool)
	}
	if ents, err := os.ReadDir(spillDir); err != nil || len(ents) > 0 {
		t.Errorf("spill dir after shutdown: %d entries (%v)", len(ents), err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseGoroutines+2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutdown, %d before the server", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// injectFault exercises one failure mode; a connection the fault
// poisons is a throwaway, so c keeps serving. A governor rejection is
// a valid answer to each of them.
func injectFault(addr string, c *wire.Client, kind int) error {
	scan := stormClasses[0].sql
	switch kind {
	case 0: // oversized request: rejected in-band, connection survives
		_, err := streamFingerprint(c, strings.Repeat(" ", 17<<20)+"SELECT 1 AS n", 0)
		if err == nil || !strings.Contains(err.Error(), "too large") {
			return fmt.Errorf("oversized request: %v", err)
		}
		if _, err := streamFingerprint(c, "SELECT 1 AS n", 0); err != nil && !isOverloaded(err) {
			return fmt.Errorf("connection dead after oversized request: %w", err)
		}
	case 1: // mid-stream disconnect
		tc, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		if st, err := tc.Stream(wire.Columnar, scan); err == nil {
			st.Next()
		}
		tc.Close()
	case 2: // slow reader
		if _, err := streamFingerprint(c, scan, 2*time.Millisecond); err != nil && !isOverloaded(err) {
			return fmt.Errorf("slow read: %w", err)
		}
	case 3: // client cancel mid-stream
		st, err := c.Stream(wire.Columnar, scan)
		if err != nil {
			if isOverloaded(err) {
				return nil
			}
			return err
		}
		if _, err := st.Next(); err != nil {
			st.Close()
			if isOverloaded(err) {
				return nil
			}
			return err
		}
		if err := c.Cancel(); err != nil {
			return err
		}
		for {
			// The query either finishes before the cancel lands or
			// reports it; both are correct.
			ch, err := st.Next()
			if err != nil && !errors.Is(err, wire.ErrQueryCancelled) {
				st.Close()
				return fmt.Errorf("cancel outcome: %w", err)
			}
			if err != nil || ch == nil {
				break
			}
		}
		st.Close()
	}
	return nil
}
