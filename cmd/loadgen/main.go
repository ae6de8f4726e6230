// Command loadgen drives concurrent wire clients against a csdb
// server with mixed scan / aggregation / join / DISTINCT / PREDICT
// traffic plus injected faults (mid-stream disconnects, slow readers,
// client cancels, oversized requests), and verifies the server's
// resource governance end to end:
//
//   - every admitted query returns results identical to a serial
//     baseline run (all query classes produce exact integer/string
//     results, so parallelism cannot change bytes);
//   - overload is rejected with the typed retryable error, never a
//     broken connection;
//   - after graceful shutdown no goroutines, spill files, or pool
//     leases remain.
//
// With -writers N the storm is mixed read/write: N extra connections
// stream single-row INSERTs into a dedicated ingest table while the
// read clients run. Writes land in their own table so the read
// baselines stay byte-identical, and after the storm the ingest row
// count must equal exactly the acknowledged statements.
//
// It emits a throughput / latency-percentile report as JSON
// (-out BENCH_concurrency.json) and exits non-zero on any violation.
//
// Usage:
//
//	loadgen -clients 16 -requests 25 -writers 4 -faults 0.1 -out BENCH_concurrency.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"vexdb"
	"vexdb/internal/cliutil"
	"vexdb/internal/governor"
	"vexdb/internal/vector"
	"vexdb/internal/wire"
	"vexdb/internal/workload"
)

type config struct {
	addr         string
	clients      int
	writers      int
	requests     int
	rows         int
	workers      int
	memBudget    int64
	memPool      int64
	maxActive    int
	maxQueue     int
	queryTimeout time.Duration
	drainTimeout time.Duration
	faults       float64
	seed         int64
	expectRej    bool
	exp          string
	out          string
}

type queryClass struct {
	Name string `json:"name"`
	SQL  string `json:"-"`
	// Runs/Errors are filled during the storm.
	Runs   int64 `json:"runs"`
	Errors int64 `json:"errors"`
	fp     uint64
}

type report struct {
	Config struct {
		Clients      int     `json:"clients"`
		Writers      int     `json:"writers"`
		Requests     int     `json:"requests_per_client"`
		Rows         int     `json:"rows"`
		MemPool      int64   `json:"mem_pool_bytes"`
		MaxActive    int     `json:"max_active"`
		MaxQueue     int     `json:"max_queue"`
		FaultRate    float64 `json:"fault_rate"`
		Seed         int64   `json:"seed"`
		QueryTimeout string  `json:"query_timeout"`
	} `json:"config"`
	Totals struct {
		Queries          int64 `json:"queries"`
		OK               int64 `json:"ok"`
		Rejected         int64 `json:"rejected"`
		InjectedFaults   int64 `json:"injected_faults"`
		UnexpectedErrors int64 `json:"unexpected_errors"`
		ResultMismatches int64 `json:"result_mismatches"`
	} `json:"totals"`
	// Writes summarizes the -writers ingest stream: acknowledged INSERT
	// statements, governor rejections (each retried until admitted), and
	// write statements/second over the storm window.
	Writes struct {
		Statements int64   `json:"statements"`
		Rejected   int64   `json:"rejected"`
		Errors     int64   `json:"errors"`
		QPS        float64 `json:"qps"`
	} `json:"writes"`
	ThroughputQPS float64            `json:"throughput_qps"`
	LatencyMS     map[string]float64 `json:"latency_ms"`
	Classes       []*queryClass      `json:"classes"`
	Governor      governor.Stats     `json:"governor"`
	Goroutines    int                `json:"goroutines_after_drain"`
	Violations    []string           `json:"violations"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func parseFlags() (config, error) {
	var c config
	memBudget := flag.String("mem-budget", "8MB", "per-query memory budget (spill threshold)")
	memPool := flag.String("mem-pool", "256MB", "shared memory pool for the governor")
	flag.StringVar(&c.addr, "addr", "", "existing server address (empty = start an in-process server)")
	flag.IntVar(&c.clients, "clients", 16, "concurrent wire clients")
	flag.IntVar(&c.writers, "writers", 0, "concurrent ingest writers (single-row INSERTs into a dedicated table)")
	flag.IntVar(&c.requests, "requests", 25, "requests per client")
	flag.IntVar(&c.rows, "rows", 100_000, "rows in the generated events table")
	flag.IntVar(&c.workers, "workers", 0, "per-query parallelism cap (0 = all CPUs)")
	flag.IntVar(&c.maxActive, "max-active", 4, "governor concurrent-query cap")
	flag.IntVar(&c.maxQueue, "max-queue", 8, "governor admission-queue capacity")
	flag.DurationVar(&c.queryTimeout, "query-timeout", 30*time.Second, "per-query deadline")
	flag.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown window")
	flag.Float64Var(&c.faults, "faults", 0.1, "per-request fault-injection probability")
	flag.Int64Var(&c.seed, "seed", 1, "deterministic traffic seed")
	flag.BoolVar(&c.expectRej, "expect-rejects", false, "fail unless the governor rejected at least one query")
	flag.StringVar(&c.exp, "exp", "", "experiment to run: empty = concurrency storm, adaptive = adaptive-lease benchmark")
	flag.StringVar(&c.out, "out", "", "report output path (default BENCH_concurrency.json, or BENCH_adaptive.json with -exp adaptive)")
	flag.Parse()
	if c.out == "" {
		if c.exp == "adaptive" {
			c.out = "BENCH_adaptive.json"
		} else {
			c.out = "BENCH_concurrency.json"
		}
	}
	var err error
	if c.memBudget, err = cliutil.ParseByteSize(*memBudget); err != nil {
		return c, fmt.Errorf("-mem-budget: %w", err)
	}
	if c.memPool, err = cliutil.ParseByteSize(*memPool); err != nil {
		return c, fmt.Errorf("-mem-pool: %w", err)
	}
	return c, nil
}

func run() error {
	cfg, err := parseFlags()
	if err != nil {
		return err
	}
	switch cfg.exp {
	case "":
	case "adaptive":
		return runAdaptive(cfg)
	default:
		return fmt.Errorf("-exp: unknown experiment %q (want adaptive)", cfg.exp)
	}

	baseGoroutines := runtime.NumGoroutine()
	addr := cfg.addr
	var db *vexdb.DB
	var srv *wire.Server
	var tempDir string
	if addr == "" {
		tempDir, err = os.MkdirTemp("", "loadgen-spill-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tempDir)
		db, err = setupDB(cfg, tempDir)
		if err != nil {
			return err
		}
		srv = wire.NewServer(db.Engine())
		addr, err = srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		fmt.Printf("loadgen: in-process server on %s\n", addr)
	}

	classes := queryClasses()
	if err := baseline(addr, classes); err != nil {
		return fmt.Errorf("serial baseline: %w", err)
	}

	var ingestBase int64
	if cfg.writers > 0 {
		if ingestBase, err = setupIngest(addr); err != nil {
			return fmt.Errorf("ingest setup: %w", err)
		}
	}

	rep := storm(cfg, addr, classes)

	if cfg.writers > 0 {
		verifyIngest(addr, rep, ingestBase)
	}

	if srv != nil {
		srv.Shutdown(cfg.drainTimeout)
		rep.Governor = db.Engine().Gov.Stats()
		checkPostShutdown(cfg, rep, db, tempDir, baseGoroutines)
	}
	if cfg.expectRej && rep.Totals.Rejected == 0 {
		rep.Violations = append(rep.Violations, "expected overload rejections, saw none")
	}
	if rep.Totals.UnexpectedErrors > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d unexpected query errors", rep.Totals.UnexpectedErrors))
	}
	if rep.Totals.ResultMismatches > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d results diverged from the serial baseline", rep.Totals.ResultMismatches))
	}
	if rep.Writes.Errors > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d write errors", rep.Writes.Errors))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("loadgen: %d queries, %d ok, %d rejected, %d faults injected, %.1f qps (report: %s)\n",
		rep.Totals.Queries, rep.Totals.OK, rep.Totals.Rejected,
		rep.Totals.InjectedFaults, rep.ThroughputQPS, cfg.out)
	if cfg.writers > 0 {
		fmt.Printf("loadgen: %d writes acked by %d writers (%d rejected), %.1f write qps\n",
			rep.Writes.Statements, cfg.writers, rep.Writes.Rejected, rep.Writes.QPS)
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("violations: %s", strings.Join(rep.Violations, "; "))
	}
	return nil
}

// setupDB builds the governed database: a skewed events stream for
// scan/agg/DISTINCT traffic and the voter pipeline (labeled rows plus
// a trained random forest) for join/PREDICT traffic.
func setupDB(cfg config, tempDir string) (*vexdb.DB, error) {
	db := vexdb.OpenOptions(vexdb.Options{
		Parallelism:  cfg.workers,
		MemoryBudget: cfg.memBudget,
		TempDir:      tempDir,
		QueryTimeout: cfg.queryTimeout,
		Governor: &vexdb.GovernorConfig{
			PoolBytes: cfg.memPool,
			MaxActive: cfg.maxActive,
			MaxQueued: cfg.maxQueue,
		},
	})
	events := workload.GenerateEvents(cfg.rows, cfg.rows/8+1, 1.1, cfg.seed)
	if err := db.CreateTableFrom("events", workload.FrameToTable(events)); err != nil {
		return nil, err
	}
	wcfg := workload.TestConfig()
	wcfg.Seed = cfg.seed
	precincts := workload.GeneratePrecincts(wcfg)
	if err := db.CreateTableFrom("precincts", workload.FrameToTable(precincts)); err != nil {
		return nil, err
	}
	voters := workload.GenerateVoters(wcfg, precincts)
	if err := db.CreateTableFrom("voters", workload.FrameToTable(voters)); err != nil {
		return nil, err
	}
	wrangle := fmt.Sprintf(`CREATE TABLE labeled AS
		SELECT v.voter_id AS id, v.precinct_id AS precinct_id, v.f0, v.f1, v.f2, v.f3,
		       weighted_label(v.voter_id, CAST(p.dem_votes AS DOUBLE), CAST(p.rep_votes AS DOUBLE), %d) AS label
		FROM voters v JOIN precincts p ON v.precinct_id = p.precinct_id`, wcfg.Seed)
	if _, err := db.Exec(wrangle); err != nil {
		return nil, fmt.Errorf("wrangle: %w", err)
	}
	train := fmt.Sprintf(`CREATE TABLE rf_model AS
		SELECT * FROM train_rf((SELECT f0, f1, f2, f3, label FROM labeled WHERE id %% %d <> 0), %d, %d, %d)`,
		wcfg.TestModulus, wcfg.Estimators, wcfg.MaxDepth, wcfg.Seed)
	if _, err := db.Exec(train); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return db, nil
}

// queryClasses returns the mixed traffic. Every class produces exact
// (integer/string) results in a deterministic order, so any admitted
// run — whatever its worker grant — must hash identically to the
// serial baseline.
func queryClasses() []*queryClass {
	return []*queryClass{
		{Name: "scan", SQL: "SELECT event_id, key, tag FROM events WHERE key % 7 = 0 AND event_id < 50000"},
		{Name: "agg", SQL: "SELECT tag, count(*) AS n, min(key) AS lo, max(key) AS hi FROM events GROUP BY tag ORDER BY tag"},
		{Name: "join", SQL: "SELECT l.precinct_id, count(*) AS n FROM labeled l JOIN precincts p ON l.precinct_id = p.precinct_id GROUP BY l.precinct_id ORDER BY l.precinct_id"},
		{Name: "distinct", SQL: "SELECT count(DISTINCT key) AS n FROM events"},
		{Name: "predict", SQL: "SELECT l.id, predict(m.model, l.f0, l.f1, l.f2, l.f3) AS pred FROM labeled l, rf_model m WHERE l.id % 16 = 0"},
	}
}

// baseline runs every class once on a single connection and records
// its result fingerprint.
func baseline(addr string, classes []*queryClass) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, q := range classes {
		fp, _, err := runQuery(c, q.SQL, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		q.fp = fp
	}
	return nil
}

// runQuery streams one query and folds every value of every row into
// an order-sensitive FNV-1a fingerprint. chunkDelay simulates a slow
// reader.
func runQuery(c *wire.Client, sql string, chunkDelay time.Duration) (uint64, int64, error) {
	st, err := c.Stream(wire.Columnar, sql)
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	var rows int64
	for {
		ch, err := st.Next()
		if err != nil {
			st.Close()
			return 0, rows, err
		}
		if ch == nil {
			break
		}
		hashChunk(h, ch)
		rows += int64(ch.NumRows())
		if chunkDelay > 0 {
			time.Sleep(chunkDelay)
		}
	}
	return h.Sum64(), rows, st.Close()
}

func hashChunk(h interface{ Write([]byte) (int, error) }, ch *vector.Chunk) {
	for r := 0; r < ch.NumRows(); r++ {
		for c := 0; c < ch.NumCols(); c++ {
			h.Write([]byte(ch.Col(c).Get(r).String()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
}

type collector struct {
	mu        sync.Mutex
	latencies []time.Duration
	rep       *report
}

func (col *collector) record(d time.Duration) {
	col.mu.Lock()
	col.latencies = append(col.latencies, d)
	col.rep.Totals.OK++
	col.mu.Unlock()
}

// storm runs the concurrent phase: cfg.clients connections each
// issuing cfg.requests requests, a cfg.faults fraction of which are
// fault injections instead of well-formed queries.
func storm(cfg config, addr string, classes []*queryClass) *report {
	rep := &report{LatencyMS: map[string]float64{}, Classes: classes}
	rep.Config.Clients = cfg.clients
	rep.Config.Writers = cfg.writers
	rep.Config.Requests = cfg.requests
	rep.Config.Rows = cfg.rows
	rep.Config.MemPool = cfg.memPool
	rep.Config.MaxActive = cfg.maxActive
	rep.Config.MaxQueue = cfg.maxQueue
	rep.Config.FaultRate = cfg.faults
	rep.Config.Seed = cfg.seed
	rep.Config.QueryTimeout = cfg.queryTimeout.String()
	col := &collector{rep: rep}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientLoop(cfg, addr, classes, col, id)
		}(i)
	}
	for i := 0; i < cfg.writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			writeLoop(cfg, addr, col, id)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep.ThroughputQPS = float64(rep.Totals.OK) / elapsed.Seconds()
	if cfg.writers > 0 {
		rep.Writes.QPS = float64(rep.Writes.Statements) / elapsed.Seconds()
	}
	sort.Slice(col.latencies, func(i, j int) bool { return col.latencies[i] < col.latencies[j] })
	pct := func(p float64) float64 {
		if len(col.latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(col.latencies)-1))
		return float64(col.latencies[i].Microseconds()) / 1000
	}
	rep.LatencyMS["p50"] = pct(0.50)
	rep.LatencyMS["p90"] = pct(0.90)
	rep.LatencyMS["p99"] = pct(0.99)
	rep.LatencyMS["max"] = pct(1.0)
	return rep
}

func clientLoop(cfg config, addr string, classes []*queryClass, col *collector, id int) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)*7919))
	c, err := wire.Dial(addr)
	if err != nil {
		col.mu.Lock()
		col.rep.Totals.UnexpectedErrors++
		col.mu.Unlock()
		return
	}
	defer c.Close()
	for i := 0; i < cfg.requests; i++ {
		if rng.Float64() < cfg.faults {
			col.mu.Lock()
			col.rep.Totals.InjectedFaults++
			col.mu.Unlock()
			if err := injectFault(cfg, addr, c, classes, rng); err != nil {
				col.mu.Lock()
				col.rep.Totals.UnexpectedErrors++
				col.mu.Unlock()
				fmt.Fprintf(os.Stderr, "loadgen: fault injection: %v\n", err)
				return
			}
			continue
		}
		q := classes[rng.Intn(len(classes))]
		col.mu.Lock()
		q.Runs++
		col.rep.Totals.Queries++
		col.mu.Unlock()
		t0 := time.Now()
		fp, _, err := runQuery(c, q.SQL, 0)
		if err != nil {
			var ov *governor.OverloadedError
			if errors.As(err, &ov) {
				col.mu.Lock()
				col.rep.Totals.Rejected++
				col.mu.Unlock()
				time.Sleep(ov.RetryAfter)
				continue
			}
			col.mu.Lock()
			q.Errors++
			col.rep.Totals.UnexpectedErrors++
			col.mu.Unlock()
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", q.Name, err)
			return
		}
		col.record(time.Since(t0))
		if fp != q.fp {
			col.mu.Lock()
			col.rep.Totals.ResultMismatches++
			col.mu.Unlock()
			fmt.Fprintf(os.Stderr, "loadgen: %s: fingerprint %x, baseline %x\n", q.Name, fp, q.fp)
		}
	}
}

// setupIngest creates the writers' dedicated table (kept separate from
// the read tables so baselines stay byte-identical) and records how
// many rows it already holds, so a run against a persistent server
// still verifies exactly this storm's acknowledged statements.
func setupIngest(addr string) (int64, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE IF NOT EXISTS ingest (writer BIGINT, seq BIGINT)"); err != nil {
		return 0, err
	}
	tab, err := c.Query(wire.Columnar, "SELECT count(*) AS n FROM ingest")
	if err != nil {
		return 0, err
	}
	return tab.Cols[0].Get(0).Int64(), nil
}

// verifyIngest asserts the write-path invariant at the SQL layer: the
// ingest table grew by exactly the acknowledged statements — every
// acked INSERT visible, none duplicated or lost.
func verifyIngest(addr string, rep *report, base int64) {
	c, err := wire.Dial(addr)
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("ingest verification: %v", err))
		return
	}
	defer c.Close()
	tab, err := c.Query(wire.Columnar, "SELECT count(*) AS n FROM ingest")
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("ingest verification: %v", err))
		return
	}
	if got, want := tab.Cols[0].Get(0).Int64(), base+rep.Writes.Statements; got != want {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("ingest holds %d rows, want %d (%d acked writes on top of %d)",
				got, want, rep.Writes.Statements, base))
	}
}

// writeLoop streams cfg.requests single-row INSERTs on one dedicated
// connection. Governor rejections are retried after the advertised
// backoff so every writer eventually commits its full quota; any other
// error ends the writer and is reported as a violation.
func writeLoop(cfg config, addr string, col *collector, id int) {
	fail := func(format string, args ...any) {
		col.mu.Lock()
		col.rep.Writes.Errors++
		col.mu.Unlock()
		fmt.Fprintf(os.Stderr, "loadgen: writer %d: %s\n", id, fmt.Sprintf(format, args...))
	}
	c, err := wire.Dial(addr)
	if err != nil {
		fail("%v", err)
		return
	}
	defer c.Close()
	for i := 0; i < cfg.requests; {
		res, err := c.Exec(fmt.Sprintf("INSERT INTO ingest VALUES (%d, %d)", id, i))
		if err != nil {
			var ov *governor.OverloadedError
			if errors.As(err, &ov) {
				col.mu.Lock()
				col.rep.Writes.Rejected++
				col.mu.Unlock()
				time.Sleep(ov.RetryAfter)
				continue
			}
			fail("%v", err)
			return
		}
		if res != 1 {
			fail("insert acked %d rows", res)
			return
		}
		col.mu.Lock()
		col.rep.Writes.Statements++
		col.mu.Unlock()
		i++
	}
}

// injectFault exercises one failure mode. Faults that poison a
// connection (disconnect) use a throwaway client so the caller's
// connection keeps serving.
func injectFault(cfg config, addr string, c *wire.Client, classes []*queryClass, rng *rand.Rand) error {
	switch rng.Intn(4) {
	case 0: // oversized request, rejected in-band, connection survives
		_, _, err := runQuery(c, strings.Repeat(" ", 17<<20)+"SELECT 1 AS n", 0)
		if err == nil {
			return errors.New("oversized request was accepted")
		}
		if !strings.Contains(err.Error(), "too large") {
			return fmt.Errorf("oversized request: %w", err)
		}
		// The probe proves the connection survived; a governor
		// rejection is an equally valid in-band answer.
		if _, _, err := runQuery(c, "SELECT 1 AS n", 0); err != nil && !isRejected(err) {
			return fmt.Errorf("connection dead after oversized request: %w", err)
		}
	case 1: // mid-stream disconnect on a throwaway connection
		tc, err := wire.Dial(addr)
		if err != nil {
			return nil // accept pressure under storm; not a failure
		}
		st, err := tc.Stream(wire.Columnar, classes[0].SQL)
		if err == nil {
			st.Next()
		}
		tc.Close()
	case 2: // slow reader holding its lease while it drips chunks
		_, _, err := runQuery(c, classes[0].SQL, 2*time.Millisecond)
		if err != nil && !isRejected(err) {
			return fmt.Errorf("slow read: %w", err)
		}
	case 3: // client-initiated cancel mid-stream
		st, err := c.Stream(wire.Columnar, classes[0].SQL)
		if err != nil {
			if isRejected(err) {
				return nil
			}
			return fmt.Errorf("cancel setup: %w", err)
		}
		if _, err := st.Next(); err != nil {
			st.Close()
			if isRejected(err) {
				return nil
			}
			return fmt.Errorf("cancel first chunk: %w", err)
		}
		if err := c.Cancel(); err != nil {
			return fmt.Errorf("cancel frame: %w", err)
		}
		for {
			ch, err := st.Next()
			if err != nil {
				// The query either finished before the cancel landed
				// or reports the cancellation; both are correct.
				if !errors.Is(err, wire.ErrQueryCancelled) {
					st.Close()
					return fmt.Errorf("cancel outcome: %w", err)
				}
				break
			}
			if ch == nil {
				break
			}
		}
		st.Close()
	}
	return nil
}

func isRejected(err error) bool {
	var ov *governor.OverloadedError
	return errors.As(err, &ov)
}

// checkPostShutdown asserts the governance invariants that only an
// in-process run can observe: pool accounting, spill-file cleanup,
// and goroutine teardown.
func checkPostShutdown(cfg config, rep *report, db *vexdb.DB, tempDir string, baseGoroutines int) {
	st := rep.Governor
	if st.LeasedBytes != 0 || st.Active != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("governor not drained: %d queries, %d bytes still leased", st.Active, st.LeasedBytes))
	}
	if cfg.memPool > 0 && st.PeakLeasedBytes > cfg.memPool {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("peak leased %d exceeds pool %d", st.PeakLeasedBytes, cfg.memPool))
	}
	if ents, err := os.ReadDir(tempDir); err == nil && len(ents) > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d spill files left in %s", len(ents), tempDir))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep.Goroutines = runtime.NumGoroutine()
		if rep.Goroutines <= baseGoroutines+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rep.Goroutines > baseGoroutines+2 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d goroutines after drain (baseline %d)", rep.Goroutines, baseGoroutines))
	}
}
