package exec

import (
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

	// Done, when non-nil, cancels the query when closed: morsel
	// workers stop claiming morsels, operators draining a child return
	// ErrCancelled between chunks, and ChunkStream.Next returns
	// ErrCancelled. Stream installs its own channel here when unset.
	Done <-chan struct{}

	// Stats, when non-nil, accumulates this query's segment-level
	// scan counters (scanned vs. skipped by zone-map pruning).
	// Stream installs one when unset.
	Stats *ScanStats

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

	// Spill, when non-nil, accumulates this query's out-of-core
	// counters (partitions and runs spilled, bytes written/read).
	// Stream installs one when unset.
	Spill *SpillStats

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

	// mem and spillMgr are installed by Stream when MemoryBudget > 0;
	// they are shared by every operator of the query (the Context
	// itself is copied).
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

// done returns the cancellation channel (nil when unset or the
// context itself is nil — a nil channel never fires in a select).
func (c *Context) done() <-chan struct{} {
	if c == nil {
		return nil
	}
	return c.Done
}

// interrupted reports whether the context's Done channel has closed.
func (c *Context) interrupted() bool {
	if c == nil || c.Done == nil {
		return false
	}
	select {
	case <-c.Done:
		return true
	default:
		return false
	}
}

// Build converts a bound plan into an operator tree at one worker. Run
// and Stream build with the context's worker count instead; every
// width runs the same operators.
func Build(node plan.Node) (Operator, error) { return buildWith(node, 1) }

// buildWith converts a bound plan into an operator tree whose morsel
// pipelines run at up to workers goroutines — at one where the planner
// marked the subtree Serial. Nodes carrying an EXPLAIN ANALYZE tap are
// wrapped in a counting operator; Scan and Filter count inside their
// stages instead, because a morsel pipeline has no operator boundary
// between them.
func buildWith(node plan.Node, workers int) (Operator, error) {
	h := execHints(node)
	if h.Serial {
		workers = 1
	}
	op, err := buildNode(node, workers)
	if err != nil {
		return nil, err
	}
	if h.Tap != nil {
		op = &tapOp{child: op, tap: h.Tap}
	}
	return op, nil
}

// execHints returns the hints the build acts on for node: Serial, the
// estimated input too small to amortize more than one worker, and the
// Tap counted at the operator boundary. It is the zero value for nodes
// that carry neither (Scan and Filter count their taps inline).
func execHints(node plan.Node) plan.ExecHints {
	switch n := node.(type) {
	case *plan.HashJoin:
		return n.Hints
	case *plan.Aggregate:
		return n.Hints
	case *plan.Sort:
		return n.Hints
	case *plan.Distinct:
		return n.Hints
	}
	return plan.ExecHints{}
}

// tapOp counts the rows flowing through it into a plan node's stats
// (EXPLAIN ANALYZE); it changes nothing else.
type tapOp struct {
	child Operator
	tap   *plan.NodeStats
}

func (t *tapOp) Open(ctx *Context) error { return t.child.Open(ctx) }

func (t *tapOp) Next() (*vector.Chunk, error) {
	ch, err := t.child.Next()
	tapCount(t.tap, ch)
	return ch, err
}

func (t *tapOp) Close() error { return t.child.Close() }

// tapCount adds ch's rows to tap; nil-safe on both arguments.
func tapCount(tap *plan.NodeStats, ch *vector.Chunk) {
	if tap != nil && ch != nil {
		tap.Rows.Add(int64(ch.NumRows()))
	}
}

// buildNode builds one node. A Scan/Material/Filter/Project chain that
// extractPipe accepts is a morsel pipeline at width workers: the
// exchange (parallelPipeOp) when its rows stream on, or the input of the
// blocking operator above it. Filters and UDF-free projections over
// anything else run the same stages in a stageOp.
func buildNode(node plan.Node, workers int) (Operator, error) {
	switch n := node.(type) {
	case *plan.Scan, *plan.Material, *plan.Filter, *plan.Project:
		if pipe := extractPipe(node); pipe != nil {
			return &parallelPipeOp{pipe: pipe, workers: workers}, nil
		}
		return buildStage(node, workers)
	case *plan.TableFuncScan:
		return &tableFuncOp{spec: n}, nil
	case *plan.HashJoin:
		// UDFs in the probe keys or the residual keep the probe on one
		// thread. The build side drains in order, so the exchange feeds it.
		udf := exprsHaveUDF(n.LeftKeys) || (n.Extra != nil && exprsHaveUDF([]plan.Expr{n.Extra}))
		probe, err := feed(n.Left, workers, !udf)
		if err != nil {
			return nil, err
		}
		build, err := feed(n.Right, workers, false)
		if err != nil {
			return nil, err
		}
		return &hashJoinOp{spec: n, probe: probe, build: build}, nil
	case *plan.Aggregate:
		in, err := feed(n.Child, workers, aggParallelizable(n))
		if err != nil {
			return nil, err
		}
		return &aggOp{spec: n, in: in}, nil
	case *plan.Sort:
		// UDFs in key expressions keep run generation on one thread.
		in, err := feed(n.Child, workers, !exprsHaveUDF(sortKeyExprs(n.Keys)))
		if err != nil {
			return nil, err
		}
		return &sortOp{spec: n, in: in}, nil
	case *plan.Limit:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		return &limitOp{count: n.Count, offset: n.Offset, child: child}, nil
	case *plan.Distinct:
		in, err := feed(n.Child, workers, true)
		if err != nil {
			return nil, err
		}
		return &aggOp{spec: groupByAll(n.Child, n.Hints), in: in}, nil
	case *plan.Union:
		left, err := buildWith(n.Left, workers)
		if err != nil {
			return nil, err
		}
		right, err := buildWith(n.Right, workers)
		if err != nil {
			return nil, err
		}
		var op Operator = &unionOp{arms: [2]Operator{left, right}, types: n.Schema().Types()}
		if !n.All {
			op = &aggOp{spec: groupByAll(n, plan.ExecHints{}), in: chunkFeed{child: op}}
		}
		return op, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", node)
}

// feed builds node as a blocking operator's input: the morsel pipeline
// itself, drained by up to workers goroutines, when pipe allows it and
// node is one, else the operator node builds to, whose chunks arrive in
// order on one thread.
func feed(node plan.Node, workers int, pipe bool) (chunkFeed, error) {
	if pipe {
		if p := extractPipe(node); p != nil {
			return chunkFeed{pipe: p, workers: workers}, nil
		}
	}
	child, err := buildWith(node, workers)
	return chunkFeed{child: child}, err
}

// buildStage builds a Filter or Project that is not part of a morsel
// pipeline: over a join, an aggregate, a UNION or a table function, or
// a filter whose predicate calls a UDF not marked Parallel. A
// projection with UDF calls is mlProjectOp; the rest fold into one
// stageOp per chain.
func buildStage(node plan.Node, workers int) (Operator, error) {
	var st pipeStage
	var under plan.Node
	if f, ok := node.(*plan.Filter); ok {
		st, under = pipeStage{where: CompileWhere(f.Pred), tap: f.Hints.Tap}, f.Child
	} else {
		p := node.(*plan.Project)
		st, under = pipeStage{exprs: p.Exprs}, p.Child
	}
	child, err := buildWith(under, workers)
	if err != nil {
		return nil, err
	}
	if exprsHaveUDF(st.exprs) {
		// Row-local (Parallel) UDFs — model prediction — stream chunk
		// at a time; a holistic one must see the whole input at once,
		// as MonetDB/Python vectorized UDFs do.
		return &mlProjectOp{exprs: st.exprs, child: child, whole: !callsAllParallel(st.exprs)}, nil
	}
	if s, ok := child.(*stageOp); ok {
		s.stages = append(s.stages, st)
		return s, nil
	}
	return &stageOp{stages: []pipeStage{st}, child: child}, nil
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
// names. The stream is exhausted afterwards; the caller still owns
// Close.
func (s *ChunkStream) Materialize() (*vector.Table, error) {
	cols := make([]*vector.Vector, len(s.schema))
	for i, c := range s.schema {
		cols[i] = vector.New(c.Type, 0)
	}
	out, err := vector.NewTable(s.schema.Names(), cols)
	if err != nil {
		return nil, err
	}
	for {
		ch, err := s.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			return out, nil
		}
		if err := out.AppendChunk(ch); err != nil {
			return nil, err
		}
	}
}

// errColumnCast wraps a result-column cast failure.
func errColumnCast(name string, err error) error {
	return fmt.Errorf("exec: result column %q: %w", name, err)
}

// ----------------------------------------------------------------- stages

// stageOp runs a chain of filter and projection stages over a child
// operator's chunks with the loop a morsel pipeline runs them in
// (runStages).
type stageOp struct {
	stages []pipeStage
	child  Operator
	ctx    *Context
	sc     pipeScratch
}

func (s *stageOp) Open(ctx *Context) error {
	s.ctx = ctx
	return s.child.Open(ctx)
}

func (s *stageOp) Next() (*vector.Chunk, error) {
	return pull(s.ctx, s.child, func(ch *vector.Chunk) (*vector.Chunk, error) { return runStages(s.stages, ch, &s.sc) })
}

func (s *stageOp) Close() error { return s.child.Close() }

// pull returns the first non-nil chunk fn makes of one of child's next
// chunks, nil when child is exhausted. It observes cancellation between
// input chunks: a selective filter or a join whose probe rows all miss
// can pass over many before one survives.
func pull(ctx *Context, child Operator, fn func(*vector.Chunk) (*vector.Chunk, error)) (*vector.Chunk, error) {
	for {
		if ctx.interrupted() {
			return nil, ErrCancelled
		}
		ch, err := child.Next()
		if err != nil || ch == nil {
			return nil, err
		}
		if ch, err = fn(ch); err != nil || ch != nil {
			return ch, err
		}
	}
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
