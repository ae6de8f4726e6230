// Package engine ties the SQL front-end, planner, executor, storage
// and UDF registry into a database instance. It is wrapped by the
// public vexdb package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/exec"
	"vexdb/internal/governor"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
	"vexdb/internal/wal"
)

// ErrQueryTimeout is returned (wrapped) when a query exceeds the
// database's QueryTimeout — whether it expired waiting in the
// admission queue, in Open or mid-stream.
var ErrQueryTimeout = errors.New("engine: query deadline exceeded")

// DB is one database instance: a catalog of tables plus a UDF
// registry. Queries may run concurrently; SELECTs pin a catalog
// snapshot and never block on writers. DML statements to different
// tables run concurrently (serialized per table), DDL and checkpoints
// quiesce all writers.
type DB struct {
	cat *catalog.Catalog
	reg *core.Registry

	// ddlMu is the statement-class lock: DML (INSERT/DELETE/UPDATE)
	// holds it shared — concurrent writers to different tables proceed
	// in parallel, ordered per table by Table.LockWrites — while DDL
	// (CREATE/DROP) and checkpoints hold it exclusively to see a
	// quiesced catalog. SELECTs never take it.
	ddlMu sync.RWMutex

	// wal, when non-nil, makes every write durable: its record is
	// appended (and per SyncMode fsynced via group commit) before the
	// statement is acknowledged, and recovery replays the log on open.
	wal     *wal.Log
	walDir  string
	closeMu sync.Mutex
	closed  bool

	// Parallelism is the default worker count of the morsel-driven
	// executor and partitioned UDF evaluation (0 = NumCPU): the
	// Settings.Workers of a session-less query and of a session opened
	// later. Set it before queries run.
	Parallelism int

	// MemoryBudget is the default of Settings.Budget, as Parallelism
	// is of Workers: the estimated bytes a query's blocking operators
	// (hash aggregation, join build, sort) may hold in memory, past
	// which state grace-partitions or spills sorted runs to temp files
	// under TempDir with results unchanged. 0 = unlimited (spilling
	// disabled).
	MemoryBudget int64

	// TempDir hosts per-query spill directories when MemoryBudget
	// forces out-of-core execution; empty means os.TempDir().
	TempDir string

	// Gov, when non-nil, is the process-wide resource governor: every
	// SELECT admits through it before executing, leasing its memory
	// budget and worker count from the shared pools instead of taking
	// its settings' (the settings' Budget still caps the lease when it
	// is smaller). Writes (DDL/DML) are serialized by ddlMu and do not
	// admit, but the SELECTs inside CTAS and INSERT..SELECT open under
	// the statement's context and session before any write lock is
	// taken, so they admit against that session's limits, stop on its
	// cancellation and obey QueryTimeout like any other query.
	Gov *governor.Governor

	// QueryTimeout bounds each SELECT's wall-clock time, with or
	// without a governor — admission wait, Open and execution share
	// one deadline; expiry stops the query with ErrQueryTimeout at the
	// same checkpoints as cancellation. 0 = no deadline.
	QueryTimeout time.Duration
}

// New creates an empty in-memory database with the built-in scalar
// function library registered.
func New() *DB {
	reg := core.NewRegistry()
	core.RegisterBuiltins(reg)
	return &DB{cat: catalog.New(), reg: reg}
}

// Catalog exposes the database catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Registry exposes the UDF registry.
func (db *DB) Registry() *core.Registry { return db.reg }

// Result is a materialized query result.
type Result struct {
	// Table holds the result rows; nil for statements without results.
	Table *vector.Table
	// RowsAffected counts rows written by INSERT/DELETE/UPDATE.
	RowsAffected int64
}

// Exec parses and executes one SQL statement with the database's
// default settings.
func (db *DB) Exec(query string) (*Result, error) { return db.ExecSession(nil, query) }

// ExecSession parses and executes one SQL statement in sess (nil: the
// database's defaults) and materializes its result.
func (db *DB) ExecSession(sess *Session, query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return materialize(db.run(context.Background(), sess, stmt))
}

// ExecScript executes a semicolon-separated script, returning the
// result of the last statement.
func (db *DB) ExecScript(script string) (*Result, error) {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, s := range stmts {
		res, err = db.ExecStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecStmt executes a parsed statement with the database's default
// settings and materializes its result.
func (db *DB) ExecStmt(stmt sql.Statement) (*Result, error) {
	return materialize(db.run(context.Background(), nil, stmt))
}

func materialize(rs *ResultSet, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	tab, err := rs.Materialize()
	if err != nil {
		return nil, err
	}
	return &Result{Table: tab, RowsAffected: rs.rowsAffected}, nil
}

// run executes one statement of any kind under ctx, in sess (nil: the
// database's defaults). A SELECT streams; the SELECT inside CTAS and
// INSERT … SELECT runs under the same ctx and session, so it admits,
// cancels and times out as the statement does.
func (db *DB) run(ctx context.Context, sess *Session, stmt sql.Statement) (*ResultSet, error) {
	var n int64
	var err error
	switch s := stmt.(type) {
	case *sql.Select:
		q, err := db.openSelect(ctx, sess, s)
		if err != nil {
			return nil, err
		}
		return &ResultSet{schema: q.cs.Schema(), stream: q.cs}, nil
	case *sql.Explain:
		return db.explain(ctx, sess, s)
	case *sql.Set:
		if sess == nil {
			return nil, ErrNoSession
		}
		err = sess.Settings.set(s.Name, s.Value)
	case *sql.Show:
		set, _ := db.scope(sess)
		v, err := set.show(s.Name)
		if err != nil {
			return nil, err
		}
		return textResult(s.Name, []string{v})
	case *sql.CreateTable:
		n, err = db.execCreate(ctx, sess, s)
	case *sql.DropTable:
		err = db.execDrop(s)
	case *sql.Insert:
		n, err = db.execInsert(ctx, sess, s)
	case *sql.Delete:
		n, err = db.execDelete(sess, s)
	case *sql.Update:
		n, err = db.execUpdate(sess, s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	return &ResultSet{rowsAffected: n}, nil
}

// selectTable runs s under ctx in sess and materializes its rows.
func (db *DB) selectTable(ctx context.Context, sess *Session, s *sql.Select) (*vector.Table, error) {
	res, err := materialize(db.run(ctx, sess, s))
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

func (db *DB) execCreate(ctx context.Context, sess *Session, s *sql.CreateTable) (int64, error) {
	if s.AsSelect == nil {
		schema := make(catalog.Schema, len(s.Columns))
		for i, c := range s.Columns {
			schema[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		return db.createTable(s.Name, schema, nil, s.IfNotExists, 0)
	}
	// CTAS evaluates its SELECT before taking the DDL lock: the read
	// pins its own snapshot and must not hold up concurrent writers.
	tab, err := db.selectTable(ctx, sess, s.AsSelect)
	if err != nil {
		return 0, err
	}
	return db.createTable(s.Name, tableSchema(tab), tab.Chunk(), s.IfNotExists, db.workers(sess))
}

// CreateTableFrom creates a table named name holding the rows of an
// already materialized relation (the bulk-load fast path), as CTAS
// does: schema and rows travel in one WAL record, so the load replays
// all-or-nothing. Its segments seal at the database's default width.
func (db *DB) CreateTableFrom(name string, tab *vector.Table) error {
	_, err := db.createTable(name, tableSchema(tab), tab.Chunk(), false, db.Parallelism)
	return err
}

// tableSchema is the schema of a table holding tab's columns.
func tableSchema(tab *vector.Table) catalog.Schema {
	schema := make(catalog.Schema, tab.NumCols())
	for i, name := range tab.Names {
		schema[i] = catalog.Column{Name: name, Type: tab.Cols[i].Type()}
	}
	return schema
}

// createTable is CREATE TABLE, CTAS and CreateTableFrom. One record
// carries the schema and the rows, if any, so the statement replays
// atomically: a torn tail drops it whole, never half. The segments the
// rows fill seal up to width at a time. It returns the rows written.
func (db *DB) createTable(name string, schema catalog.Schema, ch *vector.Chunk, ifNotExists bool, width int) (int64, error) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if ifNotExists && db.cat.HasTable(name) {
		return 0, nil
	}
	rec := &wal.Record{Type: wal.RecCreate, Table: name, Cols: make([]wal.ColumnDef, len(schema))}
	for i, c := range schema {
		rec.Cols[i] = wal.ColumnDef{Name: c.Name, Type: c.Type}
	}
	var n int64
	if ch != nil && ch.NumRows() > 0 {
		rec.Chunk, n = ch, int64(ch.NumRows())
	}
	lsn, err := db.applyRecord(rec, width)
	if err != nil {
		return 0, err
	}
	return n, db.walCommit(lsn)
}

func (db *DB) execDrop(s *sql.DropTable) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if s.IfExists && !db.cat.HasTable(s.Name) {
		return nil
	}
	lsn, err := db.applyRecord(&wal.Record{Type: wal.RecDrop, Table: s.Name}, 0)
	if err != nil {
		return err
	}
	return db.walCommit(lsn)
}

func (db *DB) execInsert(ctx context.Context, sess *Session, s *sql.Insert) (int64, error) {
	// Shared statement lock: INSERTs into different tables run
	// concurrently; only DDL and checkpoints exclude us.
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(s.Table)
	if err != nil {
		return 0, err
	}
	// Map the insert column list to table positions.
	colIdx := make([]int, 0, len(tab.Schema))
	if s.Columns == nil {
		for i := range tab.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Columns {
			i := tab.Schema.IndexOf(name)
			if i < 0 {
				return 0, fmt.Errorf("engine: table %s has no column %q", s.Table, name)
			}
			colIdx = append(colIdx, i)
		}
	}

	buildChunk := func(src *vector.Table) (*vector.Chunk, error) {
		if src.NumCols() != len(colIdx) {
			return nil, fmt.Errorf("engine: INSERT provides %d columns, expected %d", src.NumCols(), len(colIdx))
		}
		n := src.NumRows()
		cols := make([]*vector.Vector, len(tab.Schema))
		provided := make(map[int]int)
		for j, ti := range colIdx {
			provided[ti] = j
		}
		for i, col := range tab.Schema {
			if j, ok := provided[i]; ok {
				c := src.Cols[j]
				if c.Type() != col.Type {
					cc, err := c.Cast(col.Type)
					if err != nil {
						return nil, fmt.Errorf("engine: column %q: %w", col.Name, err)
					}
					c = cc
				}
				cols[i] = c
				continue
			}
			// Unspecified columns get NULL.
			v := vector.New(col.Type, n)
			for r := 0; r < n; r++ {
				v.AppendValue(vector.Null())
			}
			cols[i] = v
		}
		return vector.NewChunk(cols...), nil
	}

	// Build the statement's rows as ONE chunk before any table lock:
	// a single WAL record and a single store append give readers
	// statement atomicity and replay all-or-nothing semantics.
	var ch *vector.Chunk
	if s.Query != nil {
		src, err := db.selectTable(ctx, sess, s.Query)
		if err != nil {
			return 0, err
		}
		ch, err = buildChunk(src)
		if err != nil {
			return 0, err
		}
	} else {
		ch, err = db.valuesChunk(tab, colIdx, s.Rows)
		if err != nil {
			return 0, err
		}
	}
	if err := db.appendLogged(tab, ch, db.workers(sess)); err != nil {
		return 0, err
	}
	return int64(ch.NumRows()), nil
}

// valuesChunk evaluates VALUES rows into one chunk of the table's
// schema. Cells append straight into the typed columns; one of another
// type than its column goes through the cast INSERT … SELECT applies.
// A row's cells all bind and evaluate before any of its casts fails,
// and casts fail in column order. Of cells naming the same column the
// last one is stored, and columns the list leaves out are NULL.
func (db *DB) valuesChunk(tab *catalog.Table, colIdx []int, rows [][]sql.Expr) (*vector.Chunk, error) {
	binder := plan.NewBinder(db.cat, db.reg)
	n := len(rows)
	cols := make([]*vector.Vector, len(tab.Schema))
	for i, col := range tab.Schema {
		cols[i] = vector.New(col.Type, n)
	}
	dst := slices.Clone(colIdx) // -1 where a later cell names the same column
	for j := range dst {
		if slices.Contains(colIdx[j+1:], colIdx[j]) {
			dst[j] = -1
		}
	}
	for _, row := range rows {
		if len(row) != len(colIdx) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(row), len(colIdx))
		}
		var castErr error
		castCol := len(cols)
		for j, e := range row {
			bound, err := binder.BindConst(e)
			if err != nil {
				return nil, err
			}
			v, err := plan.EvalConst(bound)
			if err != nil {
				return nil, err
			}
			i := dst[j]
			if i < 0 {
				continue
			}
			if t := tab.Schema[i].Type; !v.IsNull() && v.Type() != t {
				if v, err = castValue(v, t); err != nil {
					if i < castCol {
						castErr, castCol = fmt.Errorf("engine: column %q: %w", tab.Schema[i].Name, err), i
					}
					continue
				}
			}
			cols[i].AppendValue(v)
		}
		if castErr != nil {
			return nil, castErr
		}
	}
	for _, c := range cols {
		for c.Len() < n {
			c.AppendValue(vector.Null())
		}
	}
	return vector.NewChunk(cols...), nil
}

// AppendChunk appends ch, whose columns must conform to the table's
// schema (storage.Conform), to the named table as one logged INSERT
// (the bulk-load path for an existing table), sealing at the database's
// default width.
func (db *DB) AppendChunk(table string, ch *vector.Chunk) error {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return db.appendLogged(tab, ch, db.Parallelism)
}

// appendLogged writes ch to tab as one RecInsert under the table's
// write lock (writeTable), so the log records rows in table order: a
// RecRewrite names rows by that order. The caller holds ddlMu shared.
func (db *DB) appendLogged(tab *catalog.Table, ch *vector.Chunk, width int) error {
	if ch.NumRows() == 0 {
		return nil
	}
	return db.writeTable(tab, width, func() (*wal.Record, error) {
		return &wal.Record{Type: wal.RecInsert, Table: tab.Name, Chunk: ch}, nil
	})
}

// writeTable writes to tab the record build returns (nothing when it
// returns nil): build and applyRecord run under the table's write
// lock, so build sees the table as the record will find it, and the
// commit waits outside it, so committers of concurrent statements
// share one fsync (group commit). The segments the record fills or
// rebuilds seal up to width at a time. The caller holds ddlMu shared.
func (db *DB) writeTable(tab *catalog.Table, width int, build func() (*wal.Record, error)) error {
	lsn, err := func() (uint64, error) {
		tab.LockWrites()
		defer tab.UnlockWrites()
		rec, err := build()
		if err != nil || rec == nil {
			return 0, err
		}
		return db.applyRecord(rec, width)
	}()
	if err != nil {
		return err
	}
	return db.walCommit(lsn)
}

// castValue coerces a single literal to the column type by routing it
// through a one-row vector cast (the same coercions INSERT..SELECT
// applies column-wise).
func castValue(v vector.Value, t vector.Type) (vector.Value, error) {
	tmp := vector.New(v.Type(), 1)
	tmp.AppendValue(v)
	cv, err := tmp.Cast(t)
	if err != nil {
		return vector.Value{}, err
	}
	return cv.Get(0), nil
}

// execDelete removes the rows where the predicate is TRUE. The
// unqualified form truncates and logs RecTruncate; with a WHERE it is
// a segment-granular rewrite (see rewriteRows).
func (db *DB) execDelete(sess *Session, s *sql.Delete) (int64, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(s.Table)
	if err != nil {
		return 0, err
	}
	if s.Where != nil {
		return db.rewriteRows(tab, s.Where, db.workers(sess), nil)
	}
	var n int
	err = db.writeTable(tab, 0, func() (*wal.Record, error) {
		n = tab.Data.NumRows()
		return &wal.Record{Type: wal.RecTruncate, Table: tab.Name}, nil
	})
	if err != nil {
		return 0, err
	}
	return int64(n), nil
}

// execUpdate applies the SET expressions to the rows where the
// predicate is TRUE, in place, as a segment-granular rewrite (see
// rewriteRows). Every SET expression reads the row as it was before
// the statement.
func (db *DB) execUpdate(sess *Session, s *sql.Update) (int64, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(s.Table)
	if err != nil {
		return 0, err
	}
	binder := plan.NewBinder(db.cat, db.reg)
	sc := newTableScope(tab)
	set := make([]plan.Expr, len(tab.Schema))
	for _, asn := range s.Set {
		ci := tab.Schema.IndexOf(asn.Column)
		if ci < 0 {
			return 0, fmt.Errorf("engine: table %s has no column %q", s.Table, asn.Column)
		}
		if set[ci], err = binder.BindExprIn(asn.Value, sc); err != nil {
			return 0, err
		}
	}
	n, err := db.rewriteRows(tab, s.Where, db.workers(sess), func(matched *vector.Chunk) ([]*vector.Vector, error) {
		cols := append([]*vector.Vector(nil), matched.Cols()...)
		for ci, e := range set {
			if e == nil {
				continue
			}
			nv, err := plan.Evaluate(e, matched)
			if err != nil {
				return nil, err
			}
			if colType := tab.Schema[ci].Type; nv.Type() != colType {
				if nv, err = nv.Cast(colType); err != nil {
					return nil, fmt.Errorf("engine: column %q: %w", tab.Schema[ci].Name, err)
				}
			}
			cols[ci] = nv
		}
		return cols, nil
	})
	return n, err
}

// rewriteRows is DELETE with a WHERE (update == nil) and UPDATE: it
// finds the rows where where is TRUE (every row when it is nil), logs
// one RecRewrite record naming them by global ordinal — with their
// replacement rows from update, which sees only the matched rows of
// one segment at a time — and applies it through
// storage.ColumnStore.Rewrite, which rebuilds only the segments
// holding a match. A WHERE that folds to FALSE matches nothing and
// reads no segment. The read, the log append and the publish happen
// under the table's write lock, on the version pinned there, so a
// concurrent INSERT can neither be lost nor double-applied and the
// ordinals name the rows they were computed from. The WHERE is read as
// a filter fused into its scan reads it: segments whose zone maps
// refute its kernels are skipped undecoded (exec.Where.Refutes), and in
// the others the kernels run on codes and only the matched rows are
// decoded, for UPDATE alone (exec.Where.ScanSegment). Nothing is logged or applied
// until every segment is evaluated, so an error leaves the table and
// the log as they were. It returns the count of rows matched.
func (db *DB) rewriteRows(tab *catalog.Table, where sql.Expr, width int, update func(matched *vector.Chunk) ([]*vector.Vector, error)) (int64, error) {
	var pred plan.Expr
	if where != nil {
		var err error
		if pred, err = plan.NewBinder(db.cat, db.reg).BindWhereIn(where, newTableScope(tab)); err != nil {
			return 0, err
		}
		if plan.IsFalse(pred) {
			return 0, nil
		}
	}
	var repl []*vector.Vector
	if update != nil {
		repl = make([]*vector.Vector, len(tab.Schema))
		for i, c := range tab.Schema {
			repl[i] = vector.New(c.Type, 0)
		}
	}

	var matched int64
	err := db.writeTable(tab, width, func() (*wal.Record, error) {
		snap := tab.Data.Snapshot()
		filter := exec.CompileWhere(pred)
		var sc exec.SegmentScratch // matched columns decode into its buffers: update copies them out
		var ranges []storage.RowRange
		first := 0
		for i, rows := range snap.SegmentRowCounts() {
			base := first
			first += rows
			if filter.Refutes(snap.Zones(i), nil) {
				continue
			}
			sel, cols, err := filter.ScanSegment(snap, i, nil, &sc, update != nil)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				continue
			}
			for _, r := range sel {
				if k := len(ranges) - 1; k >= 0 && ranges[k].End == base+r {
					ranges[k].End++
				} else {
					ranges = append(ranges, storage.RowRange{Start: base + r, End: base + r + 1})
				}
			}
			matched += int64(len(sel))
			if update != nil {
				cols, err := update(vector.NewChunk(cols...))
				if err != nil {
					return nil, err
				}
				for c, v := range cols {
					repl[c].AppendVector(v)
				}
			}
		}
		if matched == 0 {
			return nil, nil
		}
		rec := &wal.Record{Type: wal.RecRewrite, Table: tab.Name, Ranges: ranges}
		if update != nil {
			rec.Chunk = vector.NewChunk(repl...)
		}
		return rec, nil
	})
	if err != nil {
		return 0, err
	}
	return matched, nil
}

func newTableScope(tab *catalog.Table) *plan.TableScope {
	return plan.NewTableScope(tab)
}

// ----------------------------------------------------------- persistence

// SaveDir writes every table to dir as <name>.vxtb files.
func (db *DB) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.cat.TableNames() {
		tab, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, strings.ToLower(name)+".vxtb")
		if err := storage.SaveTableFile(path, tab.Schema.Names(), tab.Data); err != nil {
			return fmt.Errorf("engine: save table %s: %w", name, err)
		}
	}
	return nil
}

// LoadDir attaches every *.vxtb table file found in dir.
func (db *DB) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".vxtb") {
			continue
		}
		names, store, err := storage.LoadTableFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("engine: load %s: %w", e.Name(), err)
		}
		schema := make(catalog.Schema, len(names))
		for i, n := range names {
			schema[i] = catalog.Column{Name: n, Type: store.Types()[i]}
		}
		tabName := strings.TrimSuffix(e.Name(), ".vxtb")
		if err := db.cat.AttachTable(&catalog.Table{Name: tabName, Schema: schema, Data: store}); err != nil {
			return err
		}
	}
	return nil
}
