// Package exec implements the vectorized execution engine: pull-based
// operators exchanging chunks of column vectors, hash join, hash
// aggregation, sorting and table-UDF invocation. Expressions evaluate
// through plan.Evaluate.
package exec

import (
	"context"
	"fmt"
	"runtime"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Operator is a pull-based vectorized execution operator. Next returns
// nil when the input is exhausted.
type Operator interface {
	Open(ctx *Context) error
	Next() (*vector.Chunk, error)
	Close() error
}

// Context carries per-query execution settings.
type Context struct {
	// Snap, when non-nil, pins the data version every scan of this
	// query reads. All scans of one query then observe the same
	// committed prefix of each table — concurrent writers publish new
	// versions without tearing in-flight results. When nil, each scan
	// pins the table's current version at open.
	Snap *catalog.Snapshot

	// Parallelism bounds the goroutines used by parallel operators and
	// partitioned UDF evaluation. Zero means runtime.NumCPU().
	Parallelism int

	// Ctx, when non-nil, is the query's context: once it is done,
	// morsel workers stop claiming morsels, operators draining a child
	// return ErrCancelled between chunks, and ChunkStream.Next returns
	// its cause. Stream installs a cancellable child of it (of
	// context.Background() when unset), so a stream's Cancel never
	// reaches the caller's context.
	Ctx context.Context

	// MemoryBudget bounds the estimated bytes of blocking-operator
	// state (hash aggregation tables, join build sides, sort runs)
	// this query may hold in memory at once. When the budget is
	// exceeded the operators grace-partition or write sorted runs to
	// temp files under TempDir and stream them back, so results are
	// identical to unbounded execution. Zero means unlimited
	// (spilling disabled).
	MemoryBudget int64

	// TempDir is where spill files go when MemoryBudget forces
	// out-of-core execution; empty means os.TempDir(). The query's
	// spill directory is removed when its stream closes.
	TempDir string

	// OnClose, when non-nil, runs exactly once when the query's stream
	// closes — after the operators shut down and the spill files are
	// removed. The resource governor uses it to return the query's
	// memory lease and worker slots. Stream clears the hook in its
	// private context copy so nested streams (table-UDF subplans) do
	// not fire it again, and does not fire it when stream construction
	// itself fails (the caller still owns cleanup on error).
	OnClose func()

	// LiveBudget, when non-nil, re-reads the query's current memory
	// budget on every over-budget check — the engine points it at the
	// governor ticket's atomic lease watermark, so lease grows and
	// reclaim shrinks take effect mid-query. MemoryBudget stays the
	// initial value (it still gates whether spilling is set up at all).
	LiveBudget func() int64

	// GrowBudget, when non-nil, asks the governor lease for up to n
	// more bytes and returns the new total budget. shouldSpill calls it
	// before answering yes, so a query about to spill first tries to
	// grow into idle pool bytes. Must never block; a refused or partial
	// grow simply lets the spill proceed.
	GrowBudget func(n int64) int64

	// prof is the query's profile, installed by Stream; mem and
	// spillMgr are installed by Stream when MemoryBudget > 0. They are
	// shared by every operator of the query (the Context itself is
	// copied), and prof and mem by its nested streams too.
	prof     *Profile
	mem      *memTracker
	spillMgr *spill.Manager
}

// tableData resolves the data version scans of t read: the query's
// pinned snapshot when one is set, else the table's current version.
func (c *Context) tableData(t *catalog.Table) *storage.TableSnapshot {
	if c != nil && c.Snap != nil {
		return c.Snap.Data(t)
	}
	return t.Data.Snapshot()
}

// Workers returns the effective parallelism.
func (c *Context) Workers() int {
	if c == nil || c.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return c.Parallelism
}

// done returns the query context's Done channel (nil when unset or
// the context itself is nil — a nil channel never fires in a select).
// Checkpoints poll the channel, never Err, which takes a mutex.
func (c *Context) done() <-chan struct{} {
	if c == nil || c.Ctx == nil {
		return nil
	}
	return c.Ctx.Done()
}

// interrupted reports whether the query's context is done.
func (c *Context) interrupted() bool {
	select {
	case <-c.done():
		return true
	default:
		return false
	}
}

// buildWith converts a bound plan into an operator tree whose morsel
// pipelines run at up to workers goroutines — at one where the planner
// marked the subtree Serial — and gives every node a record in prof.
// A node's operator counts the rows it emits at its boundary; the
// stages of a morsel pipeline (Scan, Filter, Project) count inline,
// because a pipeline has no operator boundary between them.
func buildWith(node plan.Node, workers int, prof *Profile) (Operator, error) {
	if serialHint(node) {
		workers = 1
	}
	op, err := buildNode(node, workers, prof)
	if err != nil {
		return nil, err
	}
	if _, ok := op.(*parallelPipeOp); ok {
		return op, nil
	}
	return &countOp{Operator: op, st: prof.node(node)}, nil
}

// serialHint reports whether the planner pinned node's subtree to one
// worker: its estimated input is too small to amortize more.
func serialHint(node plan.Node) bool {
	switch n := node.(type) {
	case *plan.HashJoin:
		return n.Hints.Serial
	case *plan.Aggregate:
		return n.Hints.Serial
	case *plan.Sort:
		return n.Hints.Serial
	case *plan.Distinct:
		return n.Hints.Serial
	}
	return false
}

// countOp counts the rows an operator emits into its node's record, and
// holds every operator that is not a pipeline to the chunk bound: a
// chunk of more than vector.DefaultChunkSize rows is an internal error.
// A pipeline's chunks are its source's, bounded there — a table's
// segments and slices, or an operator's chunks, which pass through here
// — and its stages never add rows.
type countOp struct {
	Operator
	st *nodeStats
}

func (c *countOp) Next() (*vector.Chunk, error) {
	ch, err := c.Operator.Next()
	if ch != nil {
		if n := ch.NumRows(); n > vector.DefaultChunkSize {
			return nil, fmt.Errorf("exec: internal error: %T emitted a chunk of %d rows, over the %d-row bound", c.Operator, n, vector.DefaultChunkSize)
		}
		c.st.rows.Add(int64(ch.NumRows()))
	}
	return ch, err
}

// buildNode builds one node. A Scan, Filter or Project is a
// morsel pipeline (pipeline) at its width: the exchange
// (parallelPipeOp), or, under a blocking operator, that operator's input
// (feed). A projection over a call that is not Parallel is mlProjectOp.
func buildNode(node plan.Node, workers int, prof *Profile) (Operator, error) {
	switch n := node.(type) {
	case *plan.Scan, *plan.Filter, *plan.Project:
		if p, ok := node.(*plan.Project); ok && !callsAllParallel(p.Exprs) {
			// A holistic call must see the whole input at once, as
			// MonetDB/Python vectorized UDFs do.
			child, err := buildWith(p.Child, workers, prof)
			return &mlProjectOp{exprs: p.Exprs, child: child}, err
		}
		pipe, err := pipeline(node, workers, prof)
		return &parallelPipeOp{pipe: pipe}, err
	case *plan.Material:
		return &tableChunks{data: n.Data}, nil
	case *plan.TableFuncScan:
		return &tableFuncOp{spec: n}, nil
	case *plan.HashJoin:
		// UDFs in the probe keys or the residual keep the probe on one
		// thread. The build side drains in order, so the exchange feeds it.
		udf := exprsHaveUDF(n.LeftKeys) || (n.Extra != nil && exprsHaveUDF([]plan.Expr{n.Extra}))
		probe, err := feed(n.Left, workers, !udf, prof)
		if err != nil {
			return nil, err
		}
		build, err := feed(n.Right, workers, false, prof)
		if err != nil {
			return nil, err
		}
		return &hashJoinOp{spec: n, st: prof.node(n), probe: probe, build: build}, nil
	case *plan.Aggregate:
		in, err := feed(n.Child, workers, aggParallelizable(n), prof)
		if err != nil {
			return nil, err
		}
		return &aggOp{spec: n, st: prof.node(n), in: in}, nil
	case *plan.Sort:
		// UDFs in key expressions keep run generation on one thread.
		in, err := feed(n.Child, workers, !exprsHaveUDF(sortKeyExprs(n.Keys)), prof)
		if err != nil {
			return nil, err
		}
		return &sortOp{spec: n, st: prof.node(n), in: in}, nil
	case *plan.Limit:
		child, err := buildWith(n.Child, workers, prof)
		if err != nil {
			return nil, err
		}
		return &limitOp{count: n.Count, offset: n.Offset, child: child}, nil
	case *plan.Distinct:
		in, err := feed(n.Child, workers, true, prof)
		if err != nil {
			return nil, err
		}
		return &aggOp{spec: groupByAll(n.Child, n.Hints), st: prof.node(n), in: in}, nil
	case *plan.Union:
		left, err := buildWith(n.Left, workers, prof)
		if err != nil {
			return nil, err
		}
		right, err := buildWith(n.Right, workers, prof)
		if err != nil {
			return nil, err
		}
		var op Operator = &unionOp{arms: [2]Operator{left, right}, types: n.Schema().Types()}
		if !n.All {
			op = &aggOp{spec: groupByAll(n, plan.ExecHints{}), st: prof.node(n), in: opPipe(op, workers)}
		}
		return op, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", node)
}

// feed builds node as a blocking operator's input: its morsel pipeline
// when pipe allows it, else the operator node builds to, whose chunks
// are drained on one thread.
func feed(node plan.Node, workers int, pipe bool, prof *Profile) (*pipeSpec, error) {
	if pipe {
		return pipeline(node, workers, prof)
	}
	op, err := buildWith(node, workers, prof)
	return opPipe(op, 1), err
}

// Run executes a plan to completion, returning the materialized result
// table with the plan's column names. It is the materializing wrapper
// over Stream, kept for callers that want the whole result at once.
func Run(node plan.Node, ctx *Context) (*vector.Table, error) {
	s, err := Stream(node, ctx)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Materialize()
}

// Materialize drains the stream into a table with the schema's column
// names (vector.CollectTable: each column sized once). The stream is
// exhausted afterwards; the caller still owns Close.
func (s *ChunkStream) Materialize() (*vector.Table, error) {
	return vector.CollectTable(s.schema.Names(), s.schema.Types(), s.Next)
}

// exprsHaveUDF reports whether any expression contains a UDF call.
func exprsHaveUDF(exprs []plan.Expr) bool {
	for _, e := range exprs {
		if !plan.EachCall(e, func(*plan.Call) bool { return false }) {
			return true
		}
	}
	return false
}

// callsAllParallel reports whether every UDF call in exprs is marked
// Parallel — output row i depends only on input row i — and therefore
// safe for chunk-at-a-time streaming evaluation and morsel-parallel
// execution. Vacuously true for UDF-free expressions.
func callsAllParallel(exprs []plan.Expr) bool {
	for _, e := range exprs {
		if !plan.EachCall(e, func(c *plan.Call) bool { return c.Fn.Parallel }) {
			return false
		}
	}
	return true
}

// ----------------------------------------------------------------- limit

type limitOp struct {
	count   int64
	offset  int64
	child   Operator
	skipped int64
	emitted int64
}

func (l *limitOp) Open(ctx *Context) error {
	l.skipped, l.emitted = 0, 0
	return l.child.Open(ctx)
}

func (l *limitOp) Next() (*vector.Chunk, error) {
	for {
		if l.count >= 0 && l.emitted >= l.count {
			return nil, nil
		}
		ch, err := l.child.Next()
		if err != nil || ch == nil {
			return ch, err
		}
		n := int64(ch.NumRows())
		if l.skipped < l.offset {
			if l.skipped+n <= l.offset {
				l.skipped += n
				continue
			}
			ch = ch.Slice(int(l.offset-l.skipped), int(n))
			l.skipped = l.offset
			n = int64(ch.NumRows())
		}
		if l.count >= 0 && l.emitted+n > l.count {
			ch = ch.Slice(0, int(l.count-l.emitted))
			n = int64(ch.NumRows())
		}
		l.emitted += n
		return ch, nil
	}
}

func (l *limitOp) Close() error { return l.child.Close() }

// ----------------------------------------------------------------- distinct

// groupByAll is DISTINCT over node's rows as the aggregation it is: a
// group-by on every column with no aggregates.
func groupByAll(node plan.Node, hints plan.ExecHints) *plan.Aggregate {
	exprs, names := (&plan.Distinct{Child: node}).GroupExprs()
	return &plan.Aggregate{GroupBy: exprs, GroupNames: names, Hints: hints}
}

// ----------------------------------------------------------------- union

// unionOp emits its left arm's rows, then its right arm's, cast to the
// union's declared (left) types.
type unionOp struct {
	arms  [2]Operator
	types []vector.Type
	arm   int // the arm being read
}

func (u *unionOp) Open(ctx *Context) error {
	u.arm = 0
	if err := u.arms[0].Open(ctx); err != nil {
		return err
	}
	return u.arms[1].Open(ctx)
}

func (u *unionOp) Next() (*vector.Chunk, error) {
	for u.arm < len(u.arms) {
		ch, err := u.arms[u.arm].Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			u.arm++
			continue
		}
		cols := make([]*vector.Vector, ch.NumCols())
		for i, c := range ch.Cols() {
			if c.Type() != u.types[i] {
				if c, err = c.Cast(u.types[i]); err != nil {
					return nil, fmt.Errorf("exec: UNION column %d: %w", i+1, err)
				}
			}
			cols[i] = c
		}
		return vector.NewChunk(cols...), nil
	}
	return nil, nil
}

func (u *unionOp) Close() error {
	lerr := u.arms[0].Close()
	rerr := u.arms[1].Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}
