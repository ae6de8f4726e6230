// Package vexdb is the public API of the vexdb analytical column
// store: an embedded, vectorized SQL engine with deeply integrated
// machine-learning pipelines, reproducing "Deep Integration of Machine
// Learning Into Column Stores" (Raasveldt et al., EDBT 2018).
//
// Data lives in columnar tables queried with SQL. Vectorized
// user-defined functions receive whole column vectors, so
// machine-learning models are trained inside the database
// (SELECT * FROM train_rf((SELECT ...), 16)), stored as BLOBs in
// ordinary tables, and applied with prediction UDFs
// (SELECT predict(model, f0, f1, ...) FROM ...), without the data ever
// leaving the process.
package vexdb

import (
	"context"
	"time"

	"vexdb/internal/core"
	"vexdb/internal/engine"
	"vexdb/internal/governor"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
	"vexdb/internal/wal"
)

// Type identifies a SQL column type.
type Type = vector.Type

// Column types.
const (
	Bool    = vector.Bool
	Int32   = vector.Int32
	Int64   = vector.Int64
	Float64 = vector.Float64
	String  = vector.String
	Blob    = vector.Blob
)

// Value is a single dynamically typed SQL value.
type Value = vector.Value

// Vector is a typed column of values.
type Vector = vector.Vector

// Table is a materialized, named relation (query results, UDF inputs
// and outputs).
type Table = vector.Table

// Result is the outcome of executing a statement.
type Result = engine.Result

// ScalarFunc is a vectorized scalar UDF (whole column vectors in, one
// column vector out).
type ScalarFunc = core.ScalarFunc

// TableFunc is a table-valued UDF callable in FROM clauses.
type TableFunc = core.TableFunc

// TableArg is one argument passed to a table UDF.
type TableArg = core.TableArg

// ColumnDecl declares one output column of a table UDF.
type ColumnDecl = core.ColumnDecl

// FixedReturn builds a ReturnType function for a fixed output type.
func FixedReturn(t Type) func([]Type) (Type, error) { return core.FixedReturn(t) }

// NewTable builds a materialized relation from named columns (used to
// construct table UDF results).
func NewTable(names []string, cols []*Vector) (*Table, error) {
	return vector.NewTable(names, cols)
}

// NewVectorBool wraps a bool slice as a BOOLEAN column (no copy).
func NewVectorBool(v []bool) *Vector { return vector.FromBools(v) }

// NewVectorInt32 wraps an int32 slice as an INTEGER column (no copy).
func NewVectorInt32(v []int32) *Vector { return vector.FromInt32s(v) }

// NewVectorInt64 wraps an int64 slice as a BIGINT column (no copy).
func NewVectorInt64(v []int64) *Vector { return vector.FromInt64s(v) }

// NewVectorFloat64 wraps a float64 slice as a DOUBLE column (no copy).
func NewVectorFloat64(v []float64) *Vector { return vector.FromFloat64s(v) }

// NewVectorString wraps a string slice as a VARCHAR column (no copy).
func NewVectorString(v []string) *Vector { return vector.FromStrings(v) }

// NewVectorBlob wraps a byte-slice slice as a BLOB column (no copy).
func NewVectorBlob(v [][]byte) *Vector { return vector.FromBlobs(v) }

// DB is a database instance. Use Open to create one.
type DB struct {
	eng *engine.DB
	// modelCache memoizes deserialized models for every predict UDF
	// (paper §5.1), so a chunk is scored without unmarshaling its model.
	modelCache *modelCache
}

// Options configures a database instance at Open time. The zero value
// is a valid default configuration.
type Options struct {
	// Parallelism bounds the morsel-driven parallel executor's worker
	// goroutines (0 = all CPUs). See SetParallelism for the ordering
	// and floating-point guarantees. It and MemoryBudget are defaults:
	// a Session overrides them with SET.
	Parallelism int

	// MemoryBudget bounds, per query, the estimated bytes of
	// blocking-operator state (hash aggregation tables, join build
	// sides, sort runs) held in memory at once. Queries whose state
	// outgrows the budget degrade gracefully to disk: hash state
	// grace-partitions into temp files and re-aggregates or re-probes
	// partition by partition, sorts write sorted runs and merge them
	// streaming from disk. Results are identical to unbounded
	// execution (see Rows.SpillStats to observe spilling). 0 means
	// unlimited — out-of-core execution disabled.
	MemoryBudget int64

	// TempDir hosts per-query spill directories when MemoryBudget
	// forces out-of-core execution; empty means os.TempDir(). Each
	// query's spill files are removed when its result is closed,
	// including on cancellation and error.
	TempDir string

	// QueryTimeout bounds each SELECT's total time — admission wait
	// plus execution. Expired queries terminate with a deadline error
	// at the next cancellation checkpoint. 0 means no deadline.
	QueryTimeout time.Duration

	// Governor, when non-nil, installs process-wide resource
	// governance: concurrent SELECTs lease memory from a shared pool
	// and worker slots from a shared budget, excess queries wait in a
	// bounded FIFO admission queue, and overload is rejected with a
	// typed retryable error (see GovernorConfig). Nil (the default)
	// admits every query immediately, as before.
	Governor *GovernorConfig

	// WALDir, when non-empty, makes writes durable: every
	// CREATE/INSERT/DELETE/UPDATE/DROP appends a checksummed record to
	// a write-ahead log in this directory before it is acknowledged,
	// and opening the same directory again replays the log (plus the
	// latest checkpoint) to recover exactly the acknowledged writes —
	// a kill -9 mid-statement never loses acknowledged rows and never
	// leaves a table unreadable. Use OpenDurable/OpenDirOptions, whose
	// error returns surface recovery failures.
	WALDir string

	// SyncMode picks the WAL's fsync policy: SyncGroup (default)
	// fsyncs once per group-commit batch so concurrent writers share
	// the disk flush, SyncNone leaves flushing to the OS (and to
	// Checkpoint/Close). Ignored without WALDir.
	SyncMode SyncMode
}

// SyncMode selects the WAL durability/latency trade-off; see the
// Options.SyncMode field.
type SyncMode = wal.SyncMode

// WAL sync modes.
const (
	// SyncGroup fsyncs once per group-commit batch (default).
	SyncGroup = wal.SyncGroup
	// SyncNone never fsyncs on commit; only checkpoints and Close do.
	SyncNone = wal.SyncNone
)

// ParseSyncMode maps "group" or "none" (and common aliases) to a
// SyncMode; the empty string selects SyncGroup.
func ParseSyncMode(s string) (SyncMode, error) { return wal.ParseSyncMode(s) }

// GovernorConfig configures the process-wide resource governor:
// shared memory pool, worker slots, concurrent-query and queue caps,
// and per-session limits. The zero value of each field selects a
// sensible default.
type GovernorConfig = governor.Config

// Open creates an empty in-memory database with the built-in function
// library and the ML UDF suite (train_*, predict, predict_confidence,
// weighted_label) registered.
func Open() *DB {
	db := &DB{eng: engine.New()}
	registerMLFunctions(db)
	return db
}

// OpenOptions creates an empty in-memory database configured with
// opts. Durability options (WALDir) are ignored here because WAL
// recovery can fail — use OpenDurable for a durable database.
func OpenOptions(opts Options) *DB {
	db := Open()
	db.applyOptions(opts)
	return db
}

// OpenDurable opens a database whose writes are durable: state left in
// opts.WALDir by a previous incarnation (checkpoint plus log) is
// recovered first, then every subsequent write is logged before it is
// acknowledged. Callers should Close (or Checkpoint) the database on
// shutdown.
func OpenDurable(opts Options) (*DB, error) {
	db := Open()
	db.applyOptions(opts)
	if err := db.enableWAL(opts); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) enableWAL(opts Options) error {
	if opts.WALDir == "" {
		return nil
	}
	return db.eng.EnableWAL(opts.WALDir, opts.SyncMode)
}

// Checkpoint persists every table under the WAL directory and
// truncates the log, bounding both recovery time and log size. It
// waits for in-flight writes to finish first.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Close flushes and closes the write-ahead log. The sealed log
// replays on the next OpenDurable; call Checkpoint first to also
// reset it. Close is a no-op for in-memory databases and idempotent.
func (db *DB) Close() error { return db.eng.Close() }

// OpenDir opens a database from a directory of table files written by
// SaveDir.
func OpenDir(dir string) (*DB, error) {
	db := Open()
	if err := db.eng.LoadDir(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// OpenDirOptions opens a database from a directory of table files,
// configured with opts. When opts.WALDir is set the WAL's state
// (checkpoint and log) is recovered on top of the loaded tables and
// subsequent writes are durable.
func OpenDirOptions(dir string, opts Options) (*DB, error) {
	db, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	db.applyOptions(opts)
	if err := db.enableWAL(opts); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) applyOptions(opts Options) {
	db.eng.Parallelism, db.eng.MemoryBudget, db.eng.TempDir = opts.Parallelism, opts.MemoryBudget, opts.TempDir
	db.eng.QueryTimeout = opts.QueryTimeout
	if opts.Governor != nil {
		db.eng.Gov = governor.New(*opts.Governor)
	}
}

// Exec parses and executes one SQL statement with the database's
// default settings.
func (db *DB) Exec(query string) (*Result, error) { return db.eng.ExecSession(nil, query) }

// ExecScript executes a semicolon-separated SQL script and returns the
// last statement's result.
func (db *DB) ExecScript(script string) (*Result, error) { return db.eng.ExecScript(script) }

// Query executes a SELECT with the database's default settings and
// returns its materialized result table.
func (db *DB) Query(query string) (*Table, error) { return db.query(nil, query) }

func (db *DB) query(s *engine.Session, query string) (*Table, error) {
	res, err := db.eng.ExecSession(s, query)
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// QueryStream executes a statement with the database's default
// settings and streams its result: chunks are pulled from the executor
// on demand, so iterating a huge result holds O(chunk) memory and
// closing early stops the scan workers. The caller must Close the
// returned Rows.
func (db *DB) QueryStream(query string) (*Rows, error) { return db.queryStream(nil, query) }

func (db *DB) queryStream(s *engine.Session, query string) (*Rows, error) {
	rs, err := db.eng.QuerySession(context.Background(), s, query)
	if err != nil {
		return nil, err
	}
	return &Rows{rs: rs}, nil
}

// Session is one client's scope on a database: its statements run
// with the session's settings, which start as the database's defaults
// (Options) and change with SET — SET workers = 2, SET memory_budget =
// 65536 (bytes; 0 is unlimited), SET planner = off — while SHOW
// workers returns one row of the current value. Sessions on one
// database change nothing of each other's settings, nor the defaults.
// Under a governor a session is one admission scope, so its per-session
// limits hold. A session runs one statement at a time; Close it when
// done.
type Session struct {
	db *DB
	s  *engine.Session
}

// Session opens a session with the database's default settings.
func (db *DB) Session() *Session { return &Session{db: db, s: db.eng.NewSession()} }

// Exec parses and executes one SQL statement in the session.
func (s *Session) Exec(query string) (*Result, error) { return s.db.eng.ExecSession(s.s, query) }

// Query executes a SELECT in the session and returns its materialized
// result table.
func (s *Session) Query(query string) (*Table, error) { return s.db.query(s.s, query) }

// QueryStream executes a statement in the session and streams its
// result, as DB.QueryStream does.
func (s *Session) QueryStream(query string) (*Rows, error) { return s.db.queryStream(s.s, query) }

// Close ends the session: under a governor its later admissions fail,
// and its running queries finish.
func (s *Session) Close() error {
	s.s.Close()
	return nil
}

// Rows is a streaming result iterator in the style of database/sql:
// row-at-a-time via Next/Value, or chunk-at-a-time via NextTable for
// bulk consumers. Not safe for concurrent use.
type Rows struct {
	rs  *engine.ResultSet
	ch  *vector.Chunk
	pos int
	err error
}

// Columns returns the result's column names (empty for row-less
// statements).
func (r *Rows) Columns() []string { return r.rs.Schema().Names() }

// Types returns the result's column types.
func (r *Rows) Types() []Type { return r.rs.Schema().Types() }

// HasRows reports whether the statement produces result rows (even if
// zero of them).
func (r *Rows) HasRows() bool { return r.rs.HasRows() }

// RowsAffected reports the write count of a row-less statement.
func (r *Rows) RowsAffected() int64 { return r.rs.RowsAffected() }

// Next advances to the next row, fetching the next chunk from the
// executor when the current one is exhausted. It returns false at end
// of result or on error; check Err afterwards.
func (r *Rows) Next() bool {
	if r.err != nil {
		return false
	}
	for r.ch == nil || r.pos+1 >= r.ch.NumRows() {
		ch, err := r.rs.Next()
		if err != nil {
			r.err = err
			return false
		}
		if ch == nil {
			return false
		}
		if ch.NumRows() == 0 {
			continue
		}
		r.ch, r.pos = ch, -1
	}
	r.pos++
	return true
}

// Value returns column i of the current row (valid after Next returned
// true).
func (r *Rows) Value(i int) Value { return r.ch.Col(i).Get(r.pos) }

// Row returns the current row as boxed values.
func (r *Rows) Row() []Value { return r.ch.Row(r.pos) }

// NextTable returns the next unconsumed slice of the result as a named
// table: the rest of the current chunk if Next left one partially
// read, otherwise the next chunk. It returns nil at end of result.
// The table owns its columns: executor chunks can alias store-owned
// memory (sealed raw segment vectors and the unsealed tail), and a
// vector's typed accessors hand out its backing slice, so the columns
// are copied out before being handed to the caller, who may retain and
// write them.
func (r *Rows) NextTable() (*Table, error) {
	if r.err != nil {
		return nil, r.err
	}
	ch := r.ch
	if ch != nil && r.pos+1 < ch.NumRows() {
		ch = ch.Slice(r.pos+1, ch.NumRows())
	} else {
		var err error
		ch, err = r.rs.Next()
		if err != nil {
			r.err = err
			return nil, err
		}
	}
	r.ch, r.pos = nil, 0
	if ch == nil {
		return nil, nil
	}
	cols := make([]*vector.Vector, ch.NumCols())
	for i := range cols {
		cols[i] = ch.Col(i).Clone()
	}
	return vector.NewTable(r.rs.Schema().Names(), cols)
}

// ScanStats reports how many storage segments the query scanned and
// how many it skipped outright because their zone maps refute the
// kernels of the filter fused into the scan, summed over the query's
// scans; the same counts
// reach each table's cumulative TableStats when the query closes. The
// counters are live while the result streams; read them after draining
// (or closing) for final values. Both are zero for row-less statements.
func (r *Rows) ScanStats() (scanned, skipped int64) {
	st := r.rs.ScanStats()
	return st.Scanned(), st.Skipped()
}

// SpillStats reports the query's out-of-core activity under a memory
// budget: how many grace partitions (hash aggregation and join state)
// and sorted runs went to disk — the sums over the query's operators of
// what each recorded, whose partition counts EXPLAIN ANALYZE prints per
// operator as spilled= — and the spill bytes written and read back.
// All zero when the query ran without a budget or fit within it. The
// counters are live while the result streams; read them after
// draining (or closing) for final values.
func (r *Rows) SpillStats() (partitions, runs, bytesWritten, bytesRead int64) {
	st := r.rs.SpillStats()
	return st.Partitions(), st.Runs(), st.BytesWritten(), st.BytesRead()
}

// Err returns the first error encountered while iterating.
func (r *Rows) Err() error { return r.err }

// Close releases the stream, stopping any parallel workers early.
// Always call it, including after Next returned false.
func (r *Rows) Close() error { return r.rs.Close() }

// RegisterScalar installs a vectorized scalar UDF.
func (db *DB) RegisterScalar(f *ScalarFunc) error { return db.eng.Registry().RegisterScalar(f) }

// RegisterTable installs a table-valued UDF.
func (db *DB) RegisterTable(f *TableFunc) error { return db.eng.Registry().RegisterTable(f) }

// SetParallelism sets the default worker count of the morsel-driven
// parallel executor (scans, filters, hash aggregation, hash-join
// probing) and of partitioned UDF evaluation: the workers of a
// session-less query and of a session opened later (SET workers
// changes one session's). 0 restores NumCPU. Call it before queries
// run; it is not synchronized with them. Parallel execution preserves
// serial row order and row content, with a floating-point caveat:
// SUM/AVG over DOUBLE accumulate partial sums per worker, so results
// can differ from serial in the last ulps (floating-point addition is
// not associative) and between runs; and MIN/MAX over DOUBLE may pick
// either representative among values that compare equal but are
// distinguishable (NaN against numbers, -0.0 vs 0.0). Integer, string,
// COUNT and boolean results are exact.
func (db *DB) SetParallelism(n int) { db.eng.Parallelism = n }

// SetMemoryBudget sets the default per-query bound on the estimated
// in-memory footprint of blocking operators, for session-less queries
// and sessions opened later (SET memory_budget changes one session's);
// over-budget queries spill to TempDir and return identical results
// (Options.MemoryBudget has the details). 0 restores unlimited memory.
// Call it before queries run; it is not synchronized with them.
func (db *DB) SetMemoryBudget(bytes int64) { db.eng.MemoryBudget = bytes }

// SetTempDir sets where spill files go when a memory budget forces
// out-of-core execution, for every query. Empty restores os.TempDir().
// Call it before queries run; it is not synchronized with them.
func (db *DB) SetTempDir(dir string) { db.eng.TempDir = dir }

// GovernorStats is a snapshot of the resource governor's gauges and
// counters: active/queued queries, leased pool bytes and utilization,
// admission outcomes, and the adaptive-lease activity (TryGrow grants,
// reclaim shrinks) with their peak watermarks.
type GovernorStats = governor.Stats

// GovernorStats returns the governor's current snapshot; the zero
// value when no governor is installed.
func (db *DB) GovernorStats() GovernorStats {
	if db.eng.Gov == nil {
		return GovernorStats{}
	}
	return db.eng.Gov.Stats()
}

// SaveDir persists every table to dir.
func (db *DB) SaveDir(dir string) error { return db.eng.SaveDir(dir) }

// TableNames lists the tables in the database, sorted.
func (db *DB) TableNames() []string { return db.eng.Catalog().TableNames() }

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool { return db.eng.Catalog().HasTable(name) }

// TableStats describes the physical layout of one table: segment
// counts, logical vs. compressed bytes, per-encoding column counts,
// and cumulative segments scanned vs. skipped by zone-map pruning.
type TableStats = storage.TableStats

// TableStats returns the physical statistics of the named table,
// making compression ratios and scan pruning observable:
//
//	st, _ := db.TableStats("events")
//	fmt.Printf("%d/%d segments sealed, %.1fx compression, %d segments pruned\n",
//		st.SealedSegments, st.Segments,
//		float64(st.LogicalBytes)/float64(st.CompressedBytes),
//		st.SegmentsSkipped)
func (db *DB) TableStats(name string) (TableStats, error) {
	tab, err := db.eng.Catalog().Table(name)
	if err != nil {
		return TableStats{}, err
	}
	return tab.Data.Stats(), nil
}

// NumRows returns the row count of the named table, or -1 when the
// table does not exist.
func (db *DB) NumRows(name string) int {
	tab, err := db.eng.Catalog().Table(name)
	if err != nil {
		return -1
	}
	return tab.Data.NumRows()
}

// CreateTableFrom creates a table named name from a materialized
// relation, bulk-appending its columns (the fast path for loading
// generated or imported data, bypassing SQL INSERT parsing).
func (db *DB) CreateTableFrom(name string, tab *Table) error {
	return db.eng.CreateTableFrom(name, tab)
}

// Engine exposes the underlying engine instance for in-module tooling
// (the network server wraps it); external users should not need it.
func (db *DB) Engine() *engine.DB { return db.eng }
