package engine

import (
	"context"
	"fmt"
	"strings"

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
	return db.QuerySession(context.Background(), nil, query)
}

// QuerySession is Query under a context and a governor session. The
// query stops when ctx is done — queued for admission, opening or
// streaming — and reports ctx's cause; when the database has a
// governor, the query admits against sess's concurrent-query and
// memory limits (a nil session admits without session limits). The
// wire server passes one session per connection and one context per
// request.
func (db *DB) QuerySession(ctx context.Context, sess *governor.Session, query string) (*ResultSet, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.queryStmt(ctx, sess, stmt)
}

// QueryStmt executes a parsed statement, streaming result rows.
// Non-SELECT statements run through the materializing Exec path (their
// results are row counts, not relations).
func (db *DB) QueryStmt(stmt sql.Statement) (*ResultSet, error) {
	return db.queryStmt(context.Background(), nil, stmt)
}

func (db *DB) queryStmt(ctx context.Context, sess *governor.Session, stmt sql.Statement) (*ResultSet, error) {
	if s, ok := stmt.(*sql.Select); ok {
		stream, _, _, err := db.openSelect(ctx, sess, s)
		if err != nil {
			return nil, err
		}
		return &ResultSet{schema: stream.Schema(), stream: stream}, nil
	}
	if ex, ok := stmt.(*sql.Explain); ok {
		return db.explain(ctx, sess, ex)
	}
	res, err := db.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	return &ResultSet{rowsAffected: res.RowsAffected}, nil
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

// openSelect binds and opens a SELECT under ctx, arming the query
// deadline on it before admitting through the governor (when
// configured), so admission wait, Open and execution share one
// deadline. It returns the stream, the planned tree and the governor
// ticket (nil without a governor). The ticket and the deadline are
// released by the stream's OnClose hook, so every exit path — drain,
// early Close, cancel, error — returns the lease exactly once.
func (db *DB) openSelect(ctx context.Context, sess *governor.Session, s *sql.Select) (*exec.ChunkStream, plan.Node, *governor.Ticket, error) {
	node, ectx, err := db.planSelect(s)
	if err != nil {
		return nil, nil, nil, err
	}
	release := func() {}
	if d := db.QueryTimeout; d > 0 {
		ctx, release = context.WithTimeoutCause(ctx, d, fmt.Errorf("%w (%v)", ErrQueryTimeout, d))
	}
	var ticket *governor.Ticket
	if db.Gov != nil {
		// Admission returns early once ctx is done; report why.
		ticket, err = db.Gov.Admit(sess, ectx.Workers(), 0, ctx.Done())
		if err != nil {
			if ctx.Err() != nil {
				err = context.Cause(ctx)
			}
			release()
			return nil, nil, nil, err
		}
		ectx.Parallelism = ticket.Workers()
		wireLease(ectx, ticket, db.MemoryBudget)
		cancel := release
		release = func() {
			cancel()
			ticket.Release()
		}
	}
	node = db.costPlan(node, ectx)
	ectx.Ctx, ectx.OnClose = ctx, release
	cs, err := exec.Stream(node, ectx)
	if err != nil {
		release() // Stream does not fire OnClose on construction errors
		return nil, nil, nil, err
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

// explain binds and plans ex.Query exactly as a SELECT would
// (including the cost-based pass, unless disabled) and renders the
// resulting tree as a one-column result set, one operator line per
// row. EXPLAIN ANALYZE runs the query first (analyze).
func (db *DB) explain(ctx context.Context, sess *governor.Session, ex *sql.Explain) (*ResultSet, error) {
	var lines []string
	if ex.Analyze {
		var err error
		if lines, _, err = db.analyze(ctx, sess, ex.Query); err != nil {
			return nil, err
		}
	} else {
		n, ctx, err := db.planSelect(ex.Query)
		if err != nil {
			return nil, err
		}
		lines = strings.Split(plan.Render(db.costPlan(n, ctx), nil), "\n")
	}
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

// analyze is EXPLAIN ANALYZE: it opens s through a SELECT's own path —
// governor admission, memory lease, query deadline — drains it, and
// renders the planned tree with the query's profile, so each operator
// reports what it did next to the estimates. The ticket is released
// when the drained stream closes, before the plan text streams back, so
// it cannot strand a lease; the rendering then leads with the query's
// memory dynamics: initial vs final lease, grow/shrink counts, and
// spill totals. It also returns the drained result set, whose totals
// are the same profile's.
func (db *DB) analyze(ctx context.Context, sess *governor.Session, s *sql.Select) ([]string, *ResultSet, error) {
	cs, node, ticket, err := db.openSelect(ctx, sess, s)
	if err != nil {
		return nil, nil, err
	}
	for {
		ch, err := cs.Next()
		if err != nil {
			cs.Close()
			return nil, nil, err
		}
		if ch == nil {
			break
		}
	}
	if err := cs.Close(); err != nil {
		return nil, nil, err
	}
	prof := cs.Profile()
	lines := append(explainMemoryLines(ticket, prof), strings.Split(plan.Render(node, prof.Actuals), "\n")...)
	return lines, &ResultSet{schema: cs.Schema(), stream: cs}, nil
}

// explainMemoryLines renders an EXPLAIN ANALYZE header describing the
// query's memory dynamics: the governor lease it started with, the
// lease it ended with after grows and reclaim shrinks, and what the
// spill machinery did under that budget. Empty without a governor
// lease and without spill activity, so plans from ungoverned databases
// render exactly as before.
func explainMemoryLines(t *governor.Ticket, spill *exec.Profile) []string {
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

// Schema returns the result's column names and types (empty for
// statements without result rows).
func (r *ResultSet) Schema() catalog.Schema { return r.schema }

// ScanStats returns the query's profile, read for its segment-level
// scan totals (Scanned: segments decoded, Skipped: segments zone-map
// pruning skipped), or nil — reading zero — for row-less statements.
// The totals are live until the set is drained or closed.
func (r *ResultSet) ScanStats() *exec.Profile {
	if r.stream == nil {
		return nil
	}
	return r.stream.Profile()
}

// SpillStats returns the query's profile, read for its out-of-core
// totals (grace partitions spilled and kept resident, sorted runs
// spilled, spill bytes written and read), or nil — reading zero — for
// row-less statements. All zero when the query ran without a memory
// budget or fit within it.
func (r *ResultSet) SpillStats() *exec.Profile { return r.ScanStats() }

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
