// Package engine ties the SQL front-end, planner, executor, storage
// and UDF registry into a database instance. It is wrapped by the
// public vexdb package.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// admission queue or mid-execution.
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

	// Parallelism bounds the morsel-driven parallel executor and
	// partitioned UDF evaluation (0 = NumCPU).
	Parallelism int

	// MemoryBudget bounds the estimated bytes a query's blocking
	// operators (hash aggregation, join build, sort) may hold in
	// memory; over-budget state grace-partitions or spills sorted
	// runs to temp files under TempDir and results are unchanged.
	// 0 = unlimited (spilling disabled).
	MemoryBudget int64

	// TempDir hosts per-query spill directories when MemoryBudget
	// forces out-of-core execution; empty means os.TempDir().
	TempDir string

	// Gov, when non-nil, is the process-wide resource governor: every
	// SELECT admits through it before executing, leasing its memory
	// budget and worker count from the shared pools instead of the
	// per-query fields above (MemoryBudget still applies as a per-query
	// cap when smaller than the lease). Writes (DDL/DML) are serialized
	// by ddlMu and do not admit; their embedded SELECTs (CTAS,
	// INSERT..SELECT) run ungoverned under the write lock.
	Gov *governor.Governor

	// QueryTimeout bounds each governed query's wall-clock time —
	// admission wait plus execution; expiry cancels the stream with
	// ErrQueryTimeout at the same checkpoints as cancellation.
	// 0 = no deadline.
	QueryTimeout time.Duration

	// NoCostPlanner disables the cost-based planning pass (join
	// reordering, build-side selection, execution hints); plans then
	// execute exactly as bound. Results are identical either way; it is
	// the test hook the byte-identity matrix flips.
	NoCostPlanner bool
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

// Exec parses and executes one SQL statement.
func (db *DB) Exec(query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
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

// ExecStmt executes a parsed statement.
func (db *DB) ExecStmt(stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		tab, err := db.RunSelect(s)
		if err != nil {
			return nil, err
		}
		return &Result{Table: tab}, nil
	case *sql.Explain:
		rs, err := db.explain(nil, s)
		if err != nil {
			return nil, err
		}
		tab, err := rs.Materialize()
		if err != nil {
			return nil, err
		}
		return &Result{Table: tab}, nil
	case *sql.CreateTable:
		return db.execCreate(s)
	case *sql.DropTable:
		return db.execDrop(s)
	case *sql.Insert:
		return db.execInsert(s)
	case *sql.Delete:
		return db.execDelete(s)
	case *sql.Update:
		return db.execUpdate(s)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// RunSelect binds and executes a SELECT, returning the materialized
// result. It is a thin wrapper over the streaming path (StreamSelect)
// for callers that want the whole relation at once.
func (db *DB) RunSelect(s *sql.Select) (*vector.Table, error) {
	stream, err := db.StreamSelect(s)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	return stream.Materialize()
}

func (db *DB) execCreate(s *sql.CreateTable) (*Result, error) {
	// CTAS evaluates its SELECT before taking the DDL lock: the read
	// pins its own snapshot and must not hold up concurrent writers.
	var ctasRows *vector.Table
	var schema catalog.Schema
	if s.AsSelect != nil {
		tab, err := db.RunSelect(s.AsSelect)
		if err != nil {
			return nil, err
		}
		ctasRows = tab
		schema = make(catalog.Schema, tab.NumCols())
		for i, name := range tab.Names {
			schema[i] = catalog.Column{Name: name, Type: tab.Cols[i].Type()}
		}
	} else {
		schema = make(catalog.Schema, len(s.Columns))
		for i, c := range s.Columns {
			schema[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
	}

	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if s.IfNotExists && db.cat.HasTable(s.Name) {
		return &Result{}, nil
	}
	// One record carries schema and (for CTAS) rows, so the statement
	// replays atomically: a torn tail drops it whole, never half.
	rec := &wal.Record{Type: wal.RecCreate, Table: s.Name, Cols: walSchema(schema)}
	if ctasRows != nil && ctasRows.NumRows() > 0 {
		rec.Chunk = ctasRows.Chunk()
	}
	lsn, err := db.walAppend(rec)
	if err != nil {
		return nil, err
	}
	ct, err := db.cat.CreateTable(s.Name, schema)
	if err != nil {
		return nil, err
	}
	var affected int64
	if ctasRows != nil && ctasRows.NumRows() > 0 {
		if err := ct.Data.AppendChunk(ctasRows.Chunk()); err != nil {
			return nil, err
		}
		affected = int64(ctasRows.NumRows())
	}
	if err := db.walCommit(lsn); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: affected}, nil
}

func (db *DB) execDrop(s *sql.DropTable) (*Result, error) {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if s.IfExists && !db.cat.HasTable(s.Name) {
		return &Result{}, nil
	}
	if !db.cat.HasTable(s.Name) {
		return nil, fmt.Errorf("catalog: table %q does not exist", s.Name)
	}
	lsn, err := db.walAppend(&wal.Record{Type: wal.RecDrop, Table: s.Name})
	if err != nil {
		return nil, err
	}
	if err := db.cat.DropTable(s.Name); err != nil {
		return nil, err
	}
	if err := db.walCommit(lsn); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) execInsert(s *sql.Insert) (*Result, error) {
	// Shared statement lock: INSERTs into different tables run
	// concurrently; only DDL and checkpoints exclude us.
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
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
				return nil, fmt.Errorf("engine: table %s has no column %q", s.Table, name)
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
		src, err := db.RunSelect(s.Query)
		if err != nil {
			return nil, err
		}
		ch, err = buildChunk(src)
		if err != nil {
			return nil, err
		}
	} else {
		// Literal VALUES rows, evaluated column-wise into one chunk.
		binder := plan.NewBinder(db.cat, db.reg)
		n := len(s.Rows)
		cols := make([]*vector.Vector, len(tab.Schema))
		for i, col := range tab.Schema {
			cols[i] = vector.New(col.Type, n)
		}
		for _, row := range s.Rows {
			if len(row) != len(colIdx) {
				return nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(row), len(colIdx))
			}
			vals := make([]vector.Value, len(tab.Schema))
			for i := range vals {
				vals[i] = vector.Null()
			}
			for j, e := range row {
				bound, err := bindConst(binder, e)
				if err != nil {
					return nil, err
				}
				v, err := exec.EvalConst(bound)
				if err != nil {
					return nil, err
				}
				vals[colIdx[j]] = v
			}
			for i, v := range vals {
				if !v.IsNull() && v.Type() != tab.Schema[i].Type {
					cv, err := castValue(v, tab.Schema[i].Type)
					if err != nil {
						return nil, fmt.Errorf("engine: column %q: %w", tab.Schema[i].Name, err)
					}
					v = cv
				}
				cols[i].AppendValue(v)
			}
		}
		ch = vector.NewChunk(cols...)
	}
	if ch.NumRows() == 0 {
		return &Result{}, nil
	}

	tab.LockWrites()
	lsn, err := db.walAppend(&wal.Record{Type: wal.RecInsert, Table: tab.Name, Chunk: ch})
	if err != nil {
		tab.UnlockWrites()
		return nil, err
	}
	if err := tab.Data.AppendChunk(ch); err != nil {
		tab.UnlockWrites()
		return nil, err
	}
	tab.UnlockWrites()
	// Durability wait happens outside the table lock, so committers of
	// concurrent statements share one fsync (group commit).
	if err := db.walCommit(lsn); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(ch.NumRows())}, nil
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

// CreateTableFrom creates a table from an already materialized
// relation (the bulk-load fast path). Schema and rows travel in one
// WAL record, like CTAS, so the load replays all-or-nothing.
func (db *DB) CreateTableFrom(name string, schema catalog.Schema, ch *vector.Chunk) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	rec := &wal.Record{Type: wal.RecCreate, Table: name, Cols: walSchema(schema)}
	if ch != nil && ch.NumRows() > 0 {
		rec.Chunk = ch
	}
	lsn, err := db.walAppend(rec)
	if err != nil {
		return err
	}
	ct, err := db.cat.CreateTable(name, schema)
	if err != nil {
		return err
	}
	if ch != nil && ch.NumRows() > 0 {
		if err := ct.Data.AppendChunk(ch); err != nil {
			return err
		}
	}
	return db.walCommit(lsn)
}

// bindConst binds an expression with no visible columns.
func bindConst(b *plan.Binder, e sql.Expr) (plan.Expr, error) {
	sel := &sql.Select{Items: []sql.SelectItem{{Expr: e}}}
	node, err := b.BindSelect(sel)
	if err != nil {
		return nil, err
	}
	proj, ok := node.(*plan.Project)
	if !ok || len(proj.Exprs) != 1 {
		return nil, fmt.Errorf("engine: expected constant expression")
	}
	return proj.Exprs[0], nil
}

// execDelete rewrites the table keeping rows where the predicate is
// not TRUE (column-store style copy-on-delete). The read, rewrite and
// publish happen under the table's write lock so a concurrent INSERT
// can neither be lost nor double-applied; the rewrite is logged as a
// single RecReplace record (or RecTruncate for the unqualified form)
// so replay is all-or-nothing.
func (db *DB) execDelete(s *sql.Delete) (*Result, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	tab.LockWrites()
	if s.Where == nil {
		n := tab.Data.NumRows()
		lsn, err := db.walAppend(&wal.Record{Type: wal.RecTruncate, Table: tab.Name})
		if err != nil {
			tab.UnlockWrites()
			return nil, err
		}
		tab.Data.Truncate()
		tab.UnlockWrites()
		if err := db.walCommit(lsn); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: int64(n)}, nil
	}
	keep, removed, err := db.partitionRows(tab, s.Where)
	if err != nil {
		tab.UnlockWrites()
		return nil, err
	}
	lsn, err := db.replaceLocked(tab, keep.Chunk())
	tab.UnlockWrites()
	if err != nil {
		return nil, err
	}
	if err := db.walCommit(lsn); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: removed}, nil
}

// replaceLocked logs and applies an atomic whole-table substitution.
// Caller holds tab's write lock.
func (db *DB) replaceLocked(tab *catalog.Table, ch *vector.Chunk) (uint64, error) {
	lsn, err := db.walAppend(&wal.Record{Type: wal.RecReplace, Table: tab.Name, Chunk: ch})
	if err != nil {
		return 0, err
	}
	if err := tab.Data.Replace(ch); err != nil {
		return 0, err
	}
	return lsn, nil
}

// partitionRows evaluates pred over the whole table and returns the
// rows where it is not TRUE, plus the count of removed rows.
func (db *DB) partitionRows(tab *catalog.Table, pred sql.Expr) (*vector.Table, int64, error) {
	binder := plan.NewBinder(db.cat, db.reg)
	sc := newTableScope(tab)
	bound, err := binder.BindExprIn(pred, sc)
	if err != nil {
		return nil, 0, err
	}
	full, err := materializeTable(tab)
	if err != nil {
		return nil, 0, err
	}
	ch := full.Chunk()
	if ch.NumRows() == 0 {
		return full, 0, nil
	}
	pv, err := exec.Evaluate(bound, ch)
	if err != nil {
		return nil, 0, err
	}
	if pv.Type() != vector.Bool {
		return nil, 0, fmt.Errorf("engine: WHERE predicate must be boolean")
	}
	var keepSel []int
	var removed int64
	for i := 0; i < ch.NumRows(); i++ {
		if !pv.IsNull(i) && pv.Bools()[i] {
			removed++
			continue
		}
		keepSel = append(keepSel, i)
	}
	kept := ch.Gather(keepSel)
	out, err := vector.NewTable(tab.Schema.Names(), kept.Cols())
	if err != nil {
		return nil, 0, err
	}
	return out, removed, nil
}

// execUpdate rewrites the table applying SET expressions to matching
// rows. Like DELETE it reads and republishes under the table's write
// lock and logs one RecReplace record.
func (db *DB) execUpdate(s *sql.Update) (*Result, error) {
	db.ddlMu.RLock()
	defer db.ddlMu.RUnlock()
	tab, err := db.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	binder := plan.NewBinder(db.cat, db.reg)
	sc := newTableScope(tab)

	tab.LockWrites()
	locked := true
	defer func() {
		if locked {
			tab.UnlockWrites()
		}
	}()
	full, err := materializeTable(tab)
	if err != nil {
		return nil, err
	}
	ch := full.Chunk()
	n := ch.NumRows()
	if n == 0 {
		return &Result{}, nil
	}

	match := make([]bool, n)
	if s.Where == nil {
		for i := range match {
			match[i] = true
		}
	} else {
		bound, err := binder.BindExprIn(s.Where, sc)
		if err != nil {
			return nil, err
		}
		pv, err := exec.Evaluate(bound, ch)
		if err != nil {
			return nil, err
		}
		if pv.Type() != vector.Bool {
			return nil, fmt.Errorf("engine: WHERE predicate must be boolean")
		}
		for i := 0; i < n; i++ {
			match[i] = !pv.IsNull(i) && pv.Bools()[i]
		}
	}

	var affected int64
	for _, m := range match {
		if m {
			affected++
		}
	}

	for _, asn := range s.Set {
		ci := tab.Schema.IndexOf(asn.Column)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %q", s.Table, asn.Column)
		}
		bound, err := binder.BindExprIn(asn.Value, sc)
		if err != nil {
			return nil, err
		}
		nv, err := exec.Evaluate(bound, ch)
		if err != nil {
			return nil, err
		}
		colType := tab.Schema[ci].Type
		if nv.Type() != colType {
			nv, err = nv.Cast(colType)
			if err != nil {
				return nil, fmt.Errorf("engine: column %q: %w", asn.Column, err)
			}
		}
		old := full.Cols[ci]
		merged := vector.New(colType, n)
		for i := 0; i < n; i++ {
			if match[i] {
				merged.AppendValue(nv.Get(i))
			} else {
				merged.AppendValue(old.Get(i))
			}
		}
		full.Cols[ci] = merged
	}

	lsn, err := db.replaceLocked(tab, full.Chunk())
	tab.UnlockWrites()
	locked = false
	if err != nil {
		return nil, err
	}
	if err := db.walCommit(lsn); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: affected}, nil
}

func materializeTable(tab *catalog.Table) (*vector.Table, error) {
	cols := make([]*vector.Vector, len(tab.Schema))
	for i := range tab.Schema {
		c, err := tab.Data.Column(i)
		if err != nil {
			return nil, fmt.Errorf("engine: table %s: %w", tab.Name, err)
		}
		cols[i] = c
	}
	out, err := vector.NewTable(tab.Schema.Names(), cols)
	if err != nil {
		// Columns come straight from storage; lengths always match.
		panic(err)
	}
	return out, nil
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
