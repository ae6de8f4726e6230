package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/exec"
	"vexdb/internal/governor"
	"vexdb/internal/plan"
	"vexdb/internal/plan/cost"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// ResultSet is a streaming query result: chunks are pulled from the
// executor on demand instead of materialized up front, so consumers
// (the wire server, the public Rows iterator) hold O(chunk) memory
// regardless of result size, and closing early stops scan workers.
//
// For statements without result rows (DDL/DML) the set is empty and
// RowsAffected reports the write count. Next/Close belong to the
// consuming goroutine; Cancel may be called from any goroutine.
type ResultSet struct {
	schema       catalog.Schema
	stream       *exec.ChunkStream // nil for row-less statements
	rowsAffected int64
}

// Query parses and executes one SQL statement, streaming result rows.
// The caller must Close the ResultSet.
func (db *DB) Query(query string) (*ResultSet, error) {
	return db.QuerySession(nil, query)
}

// QuerySession is Query with a governor session: when the database has
// a governor, the query admits against sess's concurrent-query and
// memory limits (a nil session admits without session limits). The
// wire server passes one session per connection.
func (db *DB) QuerySession(sess *governor.Session, query string) (*ResultSet, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.QueryStmtSession(sess, stmt)
}

// QueryStmt executes a parsed statement, streaming result rows.
// Non-SELECT statements run through the materializing Exec path (their
// results are row counts, not relations).
func (db *DB) QueryStmt(stmt sql.Statement) (*ResultSet, error) {
	return db.QueryStmtSession(nil, stmt)
}

// QueryStmtSession is QueryStmt with a governor session.
func (db *DB) QueryStmtSession(sess *governor.Session, stmt sql.Statement) (*ResultSet, error) {
	if s, ok := stmt.(*sql.Select); ok {
		stream, err := db.streamSelect(sess, s)
		if err != nil {
			return nil, err
		}
		return &ResultSet{schema: stream.Schema(), stream: stream}, nil
	}
	if ex, ok := stmt.(*sql.Explain); ok {
		return db.explain(sess, ex)
	}
	res, err := db.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	return &ResultSet{rowsAffected: res.RowsAffected}, nil
}

// StreamSelect binds a SELECT and opens it as a chunk-pull stream.
func (db *DB) StreamSelect(s *sql.Select) (*exec.ChunkStream, error) {
	return db.streamSelect(nil, s)
}

func (db *DB) streamSelect(sess *governor.Session, s *sql.Select) (*exec.ChunkStream, error) {
	cs, _, _, err := db.openSelect(sess, s, false)
	return cs, err
}

// planSelect binds and prunes s and returns it with the context it
// runs in, before admission and the cost-based pass.
func (db *DB) planSelect(s *sql.Select) (plan.Node, *exec.Context, error) {
	node, err := plan.NewBinder(db.cat, db.reg).BindSelect(s)
	if err != nil {
		return nil, nil, err
	}
	return plan.Prune(node), &exec.Context{
		Snap:         db.cat.Snapshot(),
		Parallelism:  db.Parallelism,
		MemoryBudget: db.MemoryBudget,
		TempDir:      db.TempDir,
	}, nil
}

// costPlan applies the cost-based pass for the context's width and
// budget, unless it is disabled.
func (db *DB) costPlan(node plan.Node, ctx *exec.Context) plan.Node {
	if db.NoCostPlanner {
		return node
	}
	return cost.Apply(node, ctx.Workers(), ctx.MemoryBudget)
}

// openSelect binds and opens a SELECT, admitting through the governor
// (when configured) and arming the query deadline; with taps set it
// installs row-count taps on the planned tree first, for EXPLAIN
// ANALYZE. It returns the stream, the planned tree and the governor
// ticket (nil without a governor). The ticket and deadline timer are
// released by the stream's OnClose hook, so every exit path — drain,
// early Close, cancel, error — returns the lease exactly once.
func (db *DB) openSelect(sess *governor.Session, s *sql.Select, taps bool) (*exec.ChunkStream, plan.Node, *governor.Ticket, error) {
	node, ctx, err := db.planSelect(s)
	if err != nil {
		return nil, nil, nil, err
	}
	deadline := db.QueryTimeout
	var ticket *governor.Ticket
	if db.Gov != nil {
		start := time.Now()
		t, err := db.Gov.Admit(sess, ctx.Workers(), deadline, nil)
		if err != nil {
			if errors.Is(err, governor.ErrQueueTimeout) {
				return nil, nil, nil, fmt.Errorf("%w (queued %v)", ErrQueryTimeout, deadline)
			}
			return nil, nil, nil, err
		}
		ticket = t
		ctx.Parallelism = t.Workers()
		wireLease(ctx, t, db.MemoryBudget)
		// The admission wait already consumed part of the deadline.
		if deadline > 0 {
			deadline -= time.Since(start)
			if deadline <= 0 {
				t.Release()
				return nil, nil, nil, fmt.Errorf("%w (queued %v)", ErrQueryTimeout, db.QueryTimeout)
			}
		}
	}
	node = db.costPlan(node, ctx)
	if taps {
		plan.InstallTaps(node)
	}
	var tb *timerBox
	if deadline > 0 {
		tb = &timerBox{}
	}
	release := func() {
		tb.stop()
		if ticket != nil {
			ticket.Release()
		}
	}
	ctx.OnClose = release
	cs, err := exec.Stream(node, ctx)
	if err != nil {
		release() // Stream does not fire OnClose on construction errors
		return nil, nil, nil, err
	}
	if tb != nil {
		total := db.QueryTimeout
		tb.set(time.AfterFunc(deadline, func() {
			cs.CancelCause(fmt.Errorf("%w (%v)", ErrQueryTimeout, total))
		}))
	}
	return cs, node, ticket, nil
}

// wireLease points an exec context's memory budget at a governor
// ticket's dynamic lease. The initial budget is the smaller of the
// lease and the engine's own per-query cap; LiveBudget re-reads the
// lease watermark on every over-budget check (so grows and reclaim
// shrinks take effect mid-query), and GrowBudget asks the governor for
// idle pool bytes right before an operator would otherwise spill. The
// engine cap stays a ceiling on both paths.
func wireLease(ctx *exec.Context, t *governor.Ticket, engineCap int64) {
	lease := t.MemoryBudget()
	if lease <= 0 {
		return // pool disabled: engine budget stands alone
	}
	clamp := func(b int64) int64 {
		if engineCap > 0 && b > engineCap {
			return engineCap
		}
		return b
	}
	ctx.MemoryBudget = clamp(lease)
	ctx.LiveBudget = func() int64 { return clamp(t.MemoryBudget()) }
	ctx.GrowBudget = func(n int64) int64 { return clamp(t.TryGrow(n)) }
}

// explain binds and plans ex.Query exactly as streamSelect would
// (including the cost-based pass, unless disabled) and renders the
// resulting tree as a one-column result set, one operator line per
// row. EXPLAIN ANALYZE additionally opens the query through
// streamSelect's own path — governor admission, memory lease, query
// deadline — with row-count taps installed, and drains it, so the
// rendering reports actual cardinalities next to the estimates. Its
// ticket is released when the drained stream closes, before the
// (materialized) plan text streams back, so it cannot strand a lease;
// the rendering then leads with the query's memory dynamics: initial
// vs final lease, grow/shrink counts, and spill totals.
func (db *DB) explain(sess *governor.Session, ex *sql.Explain) (*ResultSet, error) {
	var node plan.Node
	var memLines []string
	if ex.Analyze {
		cs, n, ticket, err := db.openSelect(sess, ex.Query, true)
		if err != nil {
			return nil, err
		}
		for {
			ch, err := cs.Next()
			if err != nil {
				cs.Close()
				return nil, err
			}
			if ch == nil {
				break
			}
		}
		spill := cs.SpillStats()
		if err := cs.Close(); err != nil {
			return nil, err
		}
		node, memLines = n, explainMemoryLines(ticket, spill)
	} else {
		n, ctx, err := db.planSelect(ex.Query)
		if err != nil {
			return nil, err
		}
		node = db.costPlan(n, ctx)
	}
	lines := append(memLines, strings.Split(plan.Render(node, ex.Analyze), "\n")...)
	tab, err := vector.NewTable([]string{"plan"}, []*vector.Vector{vector.FromStrings(lines)})
	if err != nil {
		return nil, err
	}
	schema := catalog.Schema{{Name: "plan", Type: vector.String}}
	cs, err := exec.Stream(&plan.Material{Data: tab, Schem: schema}, &exec.Context{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return &ResultSet{schema: schema, stream: cs}, nil
}

// explainMemoryLines renders an EXPLAIN ANALYZE header describing the
// query's memory dynamics: the governor lease it started with, the
// lease it ended with after grows and reclaim shrinks, and what the
// spill machinery did under that budget. Empty without a governor
// lease and without spill activity, so plans from ungoverned databases
// render exactly as before.
func explainMemoryLines(t *governor.Ticket, spill *exec.SpillStats) []string {
	var lines []string
	if t != nil && t.InitialBudget() > 0 {
		grows, shrinks := t.Growths()
		lines = append(lines, fmt.Sprintf(
			"memory: lease initial=%d final=%d grows=%d shrinks=%d",
			t.InitialBudget(), t.MemoryBudget(), grows, shrinks))
	}
	if spill.Spilled() || spill.ResidentPartitions() > 0 {
		lines = append(lines, fmt.Sprintf(
			"spill: partitions spilled=%d resident=%d runs=%d written=%d read=%d",
			spill.Partitions(), spill.ResidentPartitions(), spill.Runs(),
			spill.BytesWritten(), spill.BytesRead()))
	}
	return lines
}

// timerBox holds a deadline timer that may be stopped before it is
// set: OnClose can fire from Stream's error path before the timer is
// armed, and set observes the prior stop instead of leaking a timer.
type timerBox struct {
	mu      sync.Mutex
	t       *time.Timer
	stopped bool
}

func (b *timerBox) set(t *time.Timer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		t.Stop()
		return
	}
	b.t = t
}

func (b *timerBox) stop() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopped = true
	if b.t != nil {
		b.t.Stop()
	}
}

// Schema returns the result's column names and types (empty for
// statements without result rows).
func (r *ResultSet) Schema() catalog.Schema { return r.schema }

// ScanStats returns the query's segment-level scan counters (segments
// decoded vs. skipped by zone-map pruning), or nil for row-less
// statements. The counters are live until the set is drained or
// closed.
func (r *ResultSet) ScanStats() *exec.ScanStats {
	if r.stream == nil {
		return nil
	}
	return r.stream.Stats()
}

// SpillStats returns the query's out-of-core counters (grace
// partitions and sorted runs spilled to disk, spill bytes
// written/read), or nil for row-less statements. All zero when the
// query ran without a memory budget or fit within it; live until the
// set is drained or closed.
func (r *ResultSet) SpillStats() *exec.SpillStats {
	if r.stream == nil {
		return nil
	}
	return r.stream.SpillStats()
}

// HasRows reports whether the statement produces result rows (even if
// zero of them).
func (r *ResultSet) HasRows() bool { return r.stream != nil }

// RowsAffected reports the write count of a row-less statement.
func (r *ResultSet) RowsAffected() int64 { return r.rowsAffected }

// Next returns the next result chunk, (nil, nil) at end of stream.
func (r *ResultSet) Next() (*vector.Chunk, error) {
	if r.stream == nil {
		return nil, nil
	}
	return r.stream.Next()
}

// Cancel requests termination from any goroutine: a blocked Next
// returns exec.ErrCancelled and morsel workers stop between morsels.
func (r *ResultSet) Cancel() {
	if r.stream != nil {
		r.stream.Cancel()
	}
}

// CancelCause cancels like Cancel but records err as the reason, so
// Next reports it instead of the generic exec.ErrCancelled (e.g. a
// client-initiated cancel vs. a deadline). Safe from any goroutine.
func (r *ResultSet) CancelCause(err error) {
	if r.stream != nil {
		r.stream.CancelCause(err)
	}
}

// Close stops and joins any parallel workers. Must be called once the
// consumer is done, including after errors; safe to call repeatedly.
func (r *ResultSet) Close() error {
	if r.stream == nil {
		return nil
	}
	return r.stream.Close()
}

// Materialize drains the remaining stream into a table and closes the
// set. Row-less statements yield nil.
func (r *ResultSet) Materialize() (*vector.Table, error) {
	if r.stream == nil {
		return nil, nil
	}
	defer r.stream.Close()
	return r.stream.Materialize()
}
