package exec

import (
	"fmt"
	"runtime"
	"slices"

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

	// Done, when non-nil, cancels the query when closed: parallel
	// operators stop claiming morsels, serial drain loops return
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

// Build converts a bound plan into a serial operator tree. Run builds
// with the context's worker count instead, enabling the morsel-driven
// parallel operators; Build stays serial for callers without a context.
func Build(node plan.Node) (Operator, error) { return buildWith(node, 1) }

// buildWith converts a bound plan into an operator tree, substituting
// morsel-parallel operators for eligible subtrees when workers > 1 and
// the planner did not mark the node Serial. Nodes carrying an EXPLAIN
// ANALYZE tap are wrapped in a counting operator; Scan and Filter
// count inside their operators instead, because the pipeline extractor
// collapses them into morsel stages with no operator boundary.
func buildWith(node plan.Node, workers int) (Operator, error) {
	op, err := buildNode(node, workers)
	if err != nil {
		return nil, err
	}
	if tap := boundaryTap(node); tap != nil {
		op = &tapOp{child: op, tap: tap}
	}
	return op, nil
}

// boundaryTap returns the node's tap when its rows are counted at the
// operator boundary (nil for Scan/Filter, which count internally).
func boundaryTap(node plan.Node) *plan.NodeStats {
	switch n := node.(type) {
	case *plan.HashJoin:
		return n.Hints.Tap
	case *plan.Aggregate:
		return n.Hints.Tap
	case *plan.Sort:
		return n.Hints.Tap
	case *plan.Distinct:
		return n.Hints.Tap
	}
	return nil
}

// serialHint reports whether the planner pinned this node to serial
// execution (estimated input too small to amortize parallel setup).
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

func buildNode(node plan.Node, workers int) (Operator, error) {
	if workers > 1 && !serialHint(node) {
		op, ok, err := buildParallel(node, workers)
		if err != nil {
			return nil, err
		}
		if ok {
			return op, nil
		}
	}
	switch n := node.(type) {
	case *plan.Scan:
		return &scanOp{table: n.Table, projection: n.Projection, preds: n.Preds, rowPos: n.RowPos, tap: n.Hints.Tap}, nil
	case *plan.Material:
		return &materialOp{data: n.Data}, nil
	case *plan.TableFuncScan:
		return newTableFuncOp(n)
	case *plan.Filter:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		return &filterOp{where: CompileWhere(n.Pred), child: child, tap: n.Hints.Tap}, nil
	case *plan.Project:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		if exprsHaveUDF(n.Exprs) {
			// Row-local (Parallel) UDFs — model prediction — stream chunk
			// at a time; a holistic one must see the whole input at once,
			// as MonetDB/Python vectorized UDFs do.
			return &mlProjectOp{exprs: n.Exprs, child: child, whole: !callsAllParallel(n.Exprs)}, nil
		}
		return &projectOp{exprs: n.Exprs, child: child}, nil
	case *plan.HashJoin:
		left, err := buildWith(n.Left, workers)
		if err != nil {
			return nil, err
		}
		right, err := buildWith(n.Right, workers)
		if err != nil {
			return nil, err
		}
		return &hashJoinOp{spec: n, probe: chunkFeed{child: left}, build: chunkFeed{child: right}}, nil
	case *plan.Aggregate:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		return &aggOp{spec: n, in: chunkFeed{child: child}}, nil
	case *plan.Sort:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		return &sortOp{spec: n, in: chunkFeed{child: child}}, nil
	case *plan.Limit:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		return &limitOp{count: n.Count, offset: n.Offset, child: child}, nil
	case *plan.Distinct:
		child, err := buildWith(n.Child, workers)
		if err != nil {
			return nil, err
		}
		return &distinctOp{spec: groupByAll(n.Child, n.Hints), child: child}, nil
	case *plan.Union:
		left, err := buildWith(n.Left, workers)
		if err != nil {
			return nil, err
		}
		right, err := buildWith(n.Right, workers)
		if err != nil {
			return nil, err
		}
		var op Operator = &unionOp{left: left, right: right, types: n.Schema().Types()}
		if !n.All {
			op = &distinctOp{spec: groupByAll(n, plan.ExecHints{}), child: op}
		}
		return op, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", node)
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

// ----------------------------------------------------------------- material

type materialOp struct {
	data *vector.Table
	pos  int
}

func (m *materialOp) Open(*Context) error { m.pos = 0; return nil }

func (m *materialOp) Next() (*vector.Chunk, error) {
	n := m.data.NumRows()
	if m.pos >= n {
		return nil, nil
	}
	end := m.pos + vector.DefaultChunkSize
	if end > n {
		end = n
	}
	ch := m.data.Chunk().Slice(m.pos, end)
	m.pos = end
	return ch, nil
}

func (m *materialOp) Close() error { return nil }

// ----------------------------------------------------------------- filter

type filterOp struct {
	where *Where
	child Operator
	tap   *plan.NodeStats
	ctx   *Context
	sel   []int // selection buffer reused across chunks
}

func (f *filterOp) Open(ctx *Context) error {
	f.ctx = ctx
	return f.child.Open(ctx)
}

func (f *filterOp) Next() (*vector.Chunk, error) {
	for {
		// A highly selective filter can spin through many input chunks
		// before emitting one; observe cancellation between chunks.
		if f.ctx.interrupted() {
			return nil, ErrCancelled
		}
		ch, err := f.child.Next()
		if err != nil || ch == nil {
			return ch, err
		}
		out, err := f.where.filter(ch, &f.sel)
		if err != nil {
			return nil, err
		}
		if out != nil {
			tapCount(f.tap, out)
			return out, nil
		}
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// ----------------------------------------------------------------- project

type projectOp struct {
	exprs []plan.Expr
	child Operator
}

func (p *projectOp) Open(ctx *Context) error { return p.child.Open(ctx) }

func (p *projectOp) Next() (*vector.Chunk, error) {
	ch, err := p.child.Next()
	if err != nil || ch == nil {
		return nil, err
	}
	cols := make([]*vector.Vector, len(p.exprs))
	for i, e := range p.exprs {
		v, err := Evaluate(e, ch)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	return vector.NewChunk(cols...), nil
}

func (p *projectOp) Close() error { return p.child.Close() }

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

// distinctOp is the serial form of that aggregation, which streams: a
// row that creates a group in the consumer's table is a first
// appearance and is emitted at once. When the table outgrows the
// query's memory budget the consumer dumps it into the aggregation
// spiller like any other table (agg_spill.go) — every group in it
// already emitted — and routes the rest of the input there; at child
// exhaustion the spiller's merger returns all groups in first-appearance
// order, of which the first `emitted` are skipped. Output is identical
// to the unbounded run.
type distinctOp struct {
	spec    *plan.Aggregate
	child   Operator
	ctx     *Context
	cons    *aggConsumer
	morsel  int
	sel     []int // selection buffer reused across chunks
	emitted int   // groups the merger emits first that were streamed before the table was dumped
	merger  *runMerger
}

func (d *distinctOp) Open(ctx *Context) error {
	d.ctx = ctx
	d.cons = newAggConsumer(ctx, d.spec, &aggShared{})
	d.morsel, d.emitted, d.merger = 0, 0, nil
	return d.child.Open(ctx)
}

func (d *distinctOp) Next() (*vector.Chunk, error) {
	for d.merger == nil {
		if d.ctx.interrupted() {
			return nil, ErrCancelled
		}
		ch, err := d.child.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			if d.cons.table != nil {
				return nil, nil
			}
			if d.merger, err = finishAggEmit(d.ctx, d.spec, []*aggConsumer{d.cons}, d.cons.shared); err != nil {
				return nil, err
			}
			break
		}
		t, next := d.cons.table, int32(0)
		if t != nil {
			next = int32(t.numGroups())
		}
		err = d.cons.consume(ch, d.morsel)
		d.morsel++
		if err != nil {
			return nil, err
		}
		if t == nil { // dumped: the spiller took the chunk
			continue
		}
		// Group ids are dense in first-appearance order, so the rows
		// that created a group are the ones whose id is the next unused.
		sel := d.sel[:0]
		for r, id := range t.ids {
			if id == next {
				sel = append(sel, r)
				next++
			}
		}
		d.sel = sel
		if d.cons.table == nil {
			d.emitted = t.numGroups()
		}
		if len(sel) == 0 {
			continue
		}
		out := vector.NewChunk(slices.Clone(d.cons.in.keys)...) // the consumer reuses its slice
		if len(sel) < ch.NumRows() {
			out = out.Gather(sel)
		}
		return out, nil
	}
	for {
		ch, err := d.merger.next(d.ctx)
		if err != nil || ch == nil {
			return nil, err
		}
		n := ch.NumRows()
		if d.emitted >= n {
			d.emitted -= n
			continue
		}
		if d.emitted > 0 {
			ch, d.emitted = ch.Slice(d.emitted, n), 0
		}
		return ch, nil
	}
}

func (d *distinctOp) Close() error {
	d.merger.close()
	if d.cons != nil {
		d.cons.abandon() // closed before the merger: the table, or what the partitions hold
	}
	return d.child.Close()
}

// ----------------------------------------------------------------- union

type unionOp struct {
	left, right Operator
	types       []vector.Type
	onRight     bool
}

func (u *unionOp) Open(ctx *Context) error {
	u.onRight = false
	if err := u.left.Open(ctx); err != nil {
		return err
	}
	return u.right.Open(ctx)
}

func (u *unionOp) Next() (*vector.Chunk, error) {
	for {
		var src Operator
		if !u.onRight {
			src = u.left
		} else {
			src = u.right
		}
		ch, err := src.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			if u.onRight {
				return nil, nil
			}
			u.onRight = true
			continue
		}
		// Cast columns to the union's declared (left) types.
		cols := make([]*vector.Vector, ch.NumCols())
		for i := 0; i < ch.NumCols(); i++ {
			c := ch.Col(i)
			if c.Type() != u.types[i] {
				cc, err := c.Cast(u.types[i])
				if err != nil {
					return nil, fmt.Errorf("exec: UNION column %d: %w", i+1, err)
				}
				c = cc
			}
			cols[i] = c
		}
		return vector.NewChunk(cols...), nil
	}
}

func (u *unionOp) Close() error {
	lerr := u.left.Close()
	rerr := u.right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}
