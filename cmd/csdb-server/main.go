// Command csdb-server exposes a vexdb database over TCP using the
// wire protocols (columnar, binary rows, text rows), so external
// clients can play the socket-transfer baselines of Figure 1 against
// it. Results are streamed chunk by chunk straight from the executor
// (wire protocol v2): the server never materializes a result, and
// client disconnects or shutdown cancel in-flight queries.
//
// Concurrent load is governed process-wide: queries lease memory from
// a shared pool (-mem-pool) and worker slots from a shared budget
// (-worker-slots), excess queries wait in a bounded FIFO queue
// (-max-queue), and overload is rejected with a retryable wire error.
// With -wal-dir, writes are durable: each statement's WAL record is
// group-commit fsynced before the client sees its acknowledgement,
// and a restart replays the log. SIGTERM/SIGINT drain gracefully: the
// listener closes, in-flight queries finish within -drain-timeout,
// the WAL is checkpointed and sealed, then the process exits. A
// second signal aborts immediately.
//
// -workers and -mem-budget are defaults: each connection is one
// session, which SET workers = 2, SET memory_budget = 65536 or SET
// planner = off change for that connection alone.
//
// Usage:
//
//	csdb-server [-addr 127.0.0.1:5433] [-db DIR] [-wal-dir DIR] [-init script.sql]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vexdb"
	"vexdb/internal/cliutil"
	"vexdb/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "csdb-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:5433", "listen address")
	dbDir := flag.String("db", "", "database directory to serve")
	initFile := flag.String("init", "", "SQL script executed before serving")
	workers := flag.Int("workers", 0, "query execution parallelism (0 = all CPUs)")
	memBudget := flag.String("mem-budget", "0", "per-query memory budget for blocking operators, e.g. 64MB (0 = unlimited; over-budget queries spill to -temp-dir)")
	tempDir := flag.String("temp-dir", "", "spill directory for out-of-core execution (default: system temp dir)")
	memPool := flag.String("mem-pool", "0", "shared memory pool leased across concurrent queries, e.g. 1GB (0 = no pool)")
	maxActive := flag.Int("max-active", 0, "maximum concurrently executing queries (0 = 2x CPUs)")
	maxQueue := flag.Int("max-queue", 0, "admission queue capacity; excess queries are rejected with a retryable error (0 = default 64)")
	workerSlots := flag.Int("worker-slots", 0, "shared worker-goroutine budget across queries (0 = all CPUs)")
	sessionQueries := flag.Int("session-queries", 0, "per-connection concurrent query limit (0 = unlimited)")
	sessionMem := flag.String("session-mem", "0", "per-connection memory lease limit, e.g. 256MB (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline, admission wait included (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown window for in-flight queries")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: writes become durable (group-commit fsync before ack) and crash recovery replays the log on start")
	syncMode := flag.String("sync", "group", "WAL fsync policy: group (one fsync per commit batch) or none (OS-buffered)")
	flag.Parse()

	budget, err := cliutil.ParseByteSize(*memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	pool, err := cliutil.ParseByteSize(*memPool)
	if err != nil {
		return fmt.Errorf("-mem-pool: %w", err)
	}
	sessMem, err := cliutil.ParseByteSize(*sessionMem)
	if err != nil {
		return fmt.Errorf("-session-mem: %w", err)
	}
	mode, err := vexdb.ParseSyncMode(*syncMode)
	if err != nil {
		return fmt.Errorf("-sync: %w", err)
	}
	opts := vexdb.Options{
		Parallelism:  *workers,
		MemoryBudget: budget,
		TempDir:      *tempDir,
		QueryTimeout: *queryTimeout,
		WALDir:       *walDir,
		SyncMode:     mode,
		Governor: &vexdb.GovernorConfig{
			PoolBytes:        pool,
			WorkerSlots:      *workerSlots,
			MaxActive:        *maxActive,
			MaxQueued:        *maxQueue,
			SessionMaxActive: *sessionQueries,
			SessionMaxMemory: sessMem,
		},
	}
	var db *vexdb.DB
	switch {
	case *dbDir != "":
		db, err = vexdb.OpenDirOptions(*dbDir, opts)
		if err != nil {
			return err
		}
	case *walDir != "":
		db, err = vexdb.OpenDurable(opts)
		if err != nil {
			return err
		}
	default:
		db = vexdb.OpenOptions(opts)
	}
	if *initFile != "" {
		script, err := os.ReadFile(*initFile)
		if err != nil {
			return err
		}
		if _, err := db.ExecScript(string(script)); err != nil {
			return fmt.Errorf("-init %s: %w", *initFile, err)
		}
	}

	srv := wire.NewServer(db.Engine())
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("csdb-server listening on %s (tables: %v)\n", bound, db.TableNames())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("shutting down (draining in-flight queries, up to %v; signal again to abort)\n", *drainTimeout)
	done := make(chan struct{})
	go func() {
		srv.Shutdown(*drainTimeout)
		close(done)
	}()
	select {
	case <-done:
	case <-sig:
		fmt.Println("aborting: cancelling in-flight queries")
		srv.Close()
		<-done
	}
	// Seal the WAL after the drain: in-flight writes have committed, so
	// a checkpoint leaves a truncated log and instant recovery.
	if *walDir != "" {
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "csdb-server: final checkpoint:", err)
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("wal close: %w", err)
		}
	}
	return nil
}
