// Morsel-driven execution at every width. A query pipeline whose leaf
// is a base-table scan or materialized relation is split into morsels
// (one storage segment or chunk-sized slice each); a shared atomic
// cursor hands morsels to the query's workers — one worker included:
// a serial query runs the same pipeline at width one — which run the
// chunk-local filter→project stages, and either re-emit the surviving
// chunks in morsel order (exchange), feed thread-local aggregation
// tables — or, once those stop reducing their input, shared hash
// partitions — that are merged when the input drains (aggOp, agg.go;
// SELECT DISTINCT and the dedup stage of DISTINCT aggregates are
// group-bys with no aggregates), sort per-worker runs merged by a loser
// tree (sortOp, merge.go), or probe a shared hash-join build table.
// Every width produces the exact row order one worker produces, so
// both ORDER BY and ORDER BY-less results stay deterministic.
package exec

import (
	"sync"
	"sync/atomic"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// ------------------------------------------------------- morsel sources

// morselSource yields the input of a parallel pipeline as independently
// fetchable morsels. open snapshots the input and returns the morsel
// count; fetch must be safe for concurrent use. A source that decodes
// does so into sc's buffers when sc is non-nil, freshly otherwise.
// finish flushes per-scan accounting once the morsels are drained or
// abandoned.
type morselSource interface {
	open(ctx *Context) int
	fetch(i int, sc *pipeScratch) (*vector.Chunk, error)
	finish()
}

// scanSource reads one storage segment per morsel (zero-copy for
// sealed raw columns; compressed columns decode in the worker, which
// overlaps decode with compute across the pool). Segments whose zone
// maps refute the pushed-down predicates are skipped at open: they are
// no morsel, so no worker claims them and no exchange slot waits on
// them.
type scanSource struct {
	table      *catalog.Table
	projection []int
	preds      []plan.ScanPredicate
	rowPos     bool
	tap        *plan.NodeStats
	stats      *ScanStats
	store      *storage.TableSnapshot
	segs       []int // the segment of each morsel
	bases      []int64

	scanned    atomic.Int64
	finishOnce sync.Once
}

func (s *scanSource) open(ctx *Context) int {
	s.store = ctx.tableData(s.table)
	s.stats = ctx.stats()
	if s.rowPos {
		s.bases = rowPosBases(s.store)
	}
	s.segs = s.segs[:0]
	for i := range s.store.NumSegments() {
		if len(s.preds) == 0 || !SegmentPrunable(s.store.Zones(i), s.preds) {
			s.segs = append(s.segs, i)
		}
	}
	s.stats.addSkipped(int64(s.store.NumSegments() - len(s.segs)))
	return len(s.segs)
}

func (s *scanSource) fetch(i int, sc *pipeScratch) (*vector.Chunk, error) {
	var bufs []*vector.Vector
	if sc != nil {
		if sc.bufs == nil {
			sc.bufs = make([]*vector.Vector, max(len(s.projection), s.store.NumColumns()))
		}
		bufs = sc.bufs
	}
	ch, err := s.store.SegmentInto(s.segs[i], s.projection, bufs)
	if err != nil {
		return nil, err
	}
	s.scanned.Add(1)
	s.stats.addScanned(1)
	if s.rowPos {
		ch = withRowPos(ch, s.bases[s.segs[i]])
	}
	tapCount(s.tap, ch)
	return ch, nil
}

func (s *scanSource) finish() {
	s.finishOnce.Do(func() {
		if s.store != nil { // Close without Open (a sibling failed to open)
			s.store.NoteScan(s.scanned.Load(), int64(s.store.NumSegments()-len(s.segs)))
		}
	})
}

// materialSource slices a materialized table into chunk-sized morsels.
type materialSource struct {
	data *vector.Table
}

func (m *materialSource) open(*Context) int {
	return (m.data.NumRows() + vector.DefaultChunkSize - 1) / vector.DefaultChunkSize
}

func (m *materialSource) fetch(i int, _ *pipeScratch) (*vector.Chunk, error) {
	from := i * vector.DefaultChunkSize
	to := from + vector.DefaultChunkSize
	if n := m.data.NumRows(); to > n {
		to = n
	}
	return m.data.Chunk().Slice(from, to), nil
}

func (m *materialSource) finish() {}

// ------------------------------------------------------- pipeline spec

// pipeStage is one chunk-local transformation: a filter when where is
// set, otherwise a projection. tap, when set, counts the stage's
// output rows (EXPLAIN ANALYZE) — pipelined stages have no operator
// boundary to wrap, so they count inline.
type pipeStage struct {
	where *Where
	exprs []plan.Expr
	tap   *plan.NodeStats
}

// pipeSpec is a morsel-parallelizable scan→filter→project chain.
type pipeSpec struct {
	src    morselSource
	stages []pipeStage
}

// pipeScratch holds one worker's reusable buffers: the filters'
// selection vector and the decode buffers its morsels decode into. A
// decode buffer never outlives the worker's next morsel. Drained by a
// blocking consumer (forEach), whose fn is done with a chunk when it
// returns, every morsel decodes into them. Through the exchange, whose
// chunks go downstream, only a first-stage filter reads them: it hands
// on its survivors gathered into fresh vectors, and when every row
// passes the decoded vectors go downstream and their slots are
// cleared, so the next morsel decodes into new ones (costing what a
// fresh decode always did).
type pipeScratch struct {
	sel  []int
	bufs []*vector.Vector
}

// extractPipe returns the pipeline form of node when every operator in
// the chain is chunk-local, nil otherwise. UDF-bearing stages are
// admitted only when every call is marked Parallel: that flag is the
// function's declaration that concurrent evaluation over disjoint row
// ranges is safe — the same contract EvalPartitionedCall relies on —
// so model prediction runs morsel-parallel directly over base scans
// with zone-map pruning intact. Holistic UDFs (not Parallel) may keep
// unsynchronized state across calls and stay on the serial
// materializing path.
func extractPipe(node plan.Node) *pipeSpec {
	switch n := node.(type) {
	case *plan.Scan:
		return &pipeSpec{src: &scanSource{table: n.Table, projection: n.Projection, preds: n.Preds, rowPos: n.RowPos, tap: n.Hints.Tap}}
	case *plan.Material:
		return &pipeSpec{src: &materialSource{data: n.Data}}
	case *plan.Filter:
		if !callsAllParallel([]plan.Expr{n.Pred}) {
			return nil
		}
		p := extractPipe(n.Child)
		if p == nil {
			return nil
		}
		p.stages = append(p.stages, pipeStage{where: CompileWhere(n.Pred), tap: n.Hints.Tap})
		return p
	case *plan.Project:
		if !callsAllParallel(n.Exprs) {
			return nil
		}
		p := extractPipe(n.Child)
		if p == nil {
			return nil
		}
		p.stages = append(p.stages, pipeStage{exprs: n.Exprs})
		return p
	}
	return nil
}

// run fetches morsel i, into the worker's decode buffers when bufs is
// set, and runs the pipeline stages over it. It returns nil when a
// filter eliminates every row.
func (p *pipeSpec) run(i int, sc *pipeScratch, bufs bool) (*vector.Chunk, error) {
	into := sc
	if !bufs {
		into = nil
	}
	ch, err := p.src.fetch(i, into)
	if err != nil {
		return nil, err
	}
	return runStages(p.stages, ch, sc)
}

// runStages runs the stages over ch in order, nil when a filter
// eliminates every row. When the first filter passes every row, ch goes
// on as it is and the decode buffers it may sit in are given up.
func runStages(stages []pipeStage, ch *vector.Chunk, sc *pipeScratch) (*vector.Chunk, error) {
	for k, st := range stages {
		if st.where != nil {
			out, err := st.where.filter(ch, &sc.sel)
			if err != nil || out == nil {
				return nil, err
			}
			if k == 0 && out == ch {
				clear(sc.bufs)
			}
			ch = out
			tapCount(st.tap, ch)
			continue
		}
		cols := make([]*vector.Vector, len(st.exprs))
		for i, e := range st.exprs {
			v, err := Evaluate(e, ch)
			if err != nil {
				return nil, err
			}
			cols[i] = v
		}
		ch = vector.NewChunk(cols...)
	}
	return ch, nil
}

// ordered starts workers that run the pipeline's morsels and then over
// what is left of each; the results are re-emitted in morsel order.
func (p *pipeSpec) ordered(ctx *Context, workers int, then func(*vector.Chunk) (*vector.Chunk, error)) *orderedDriver {
	n := p.src.open(ctx)
	scratch := make([]pipeScratch, workers)
	filterFirst := len(p.stages) > 0 && p.stages[0].where != nil
	return startOrdered(n, workers, ctx.done(), func(w, i int) (*vector.Chunk, error) {
		ch, err := p.run(i, &scratch[w], filterFirst)
		if err != nil || ch == nil {
			return nil, err
		}
		return then(ch)
	})
}

// forEach drains the pipeline through a pool of up to workers
// goroutines (at least one): each claims morsels and hands fn the
// non-empty ones with its own index w — calls that share a w never
// overlap — and the morsel's. The first error stops the pool. Workers
// observe cancellation between morsels, and a cancelled drain is
// ErrCancelled: whatever fn accumulated saw only part of the input.
func (p *pipeSpec) forEach(ctx *Context, workers int, fn func(w, morsel int, ch *vector.Chunk) error) error {
	n := p.src.open(ctx)
	scratch := make([]pipeScratch, max(workers, 1))
	err := parallelFor(workers, n, func(w, i int) error {
		if ctx.interrupted() {
			return ErrCancelled
		}
		ch, err := p.run(i, &scratch[w], true)
		if err == nil && ch != nil && ch.NumRows() > 0 {
			err = fn(w, i, ch)
		}
		return err
	})
	p.src.finish()
	if err == nil && ctx.interrupted() {
		return ErrCancelled
	}
	return err
}

// chunkFeed is a blocking operator's input: a child operator, whose
// chunks go in order to worker 0, or — pipe — a morsel pipeline drained
// by up to workers goroutines.
type chunkFeed struct {
	child   Operator  // nil when pipe is set
	pipe    *pipeSpec // the morsel-parallel form
	workers int
}

func (f *chunkFeed) open(ctx *Context) error {
	if f.pipe != nil {
		return nil // forEach snapshots the source
	}
	return f.child.Open(ctx)
}

// forEach pushes the input's non-empty chunks at fn, each with its index
// in the input stream, as pipeSpec.forEach does.
func (f *chunkFeed) forEach(ctx *Context, workers int, fn func(w, morsel int, ch *vector.Chunk) error) error {
	if f.pipe != nil {
		return f.pipe.forEach(ctx, workers, fn)
	}
	for morsel := 0; ; morsel++ {
		if ctx.interrupted() {
			return ErrCancelled
		}
		ch, err := f.child.Next()
		if err != nil || ch == nil {
			return err
		}
		if ch.NumRows() > 0 {
			if err := fn(0, morsel, ch); err != nil {
				return err
			}
		}
	}
}

// close ends the input, drained or not: finish is idempotent and flushes
// scan accounting when the stream is abandoned before the first Next.
func (f *chunkFeed) close() error {
	if f.pipe != nil {
		f.pipe.src.finish()
		return nil
	}
	return f.child.Close()
}

// parallelFor calls fn(w, i) once for every i below n from up to
// workers goroutines (at least one), w being the caller's index among
// them, which claim the indexes in order off a shared cursor. The first
// error stops the claiming and is returned.
func parallelFor(workers, n int, fn func(w, i int) error) error {
	errs := make([]error, max(min(workers, n), 1))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && errs[w] == nil; i = int(next.Add(1)) - 1 {
				if errs[w] = fn(w, i); errs[w] != nil {
					next.Store(int64(n))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ------------------------------------------------------- ordered driver

type slotResult struct {
	ch  *vector.Chunk
	err error
}

// orderedDriver fans morsels 0..n-1 out to workers and re-emits the
// per-morsel results in morsel order, so the parallel operator's
// output is indistinguishable from serial execution. A token window
// bounds how far workers run ahead of the consumer, keeping buffered
// memory bounded and letting LIMIT-style consumers stop the scan
// early instead of racing through the whole input.
type orderedDriver struct {
	slots     []chan slotResult
	tokens    chan struct{}
	done      chan struct{}
	ext       <-chan struct{} // external cancellation (Context.Done)
	closeOnce sync.Once
	cursor    int
	stop      atomic.Bool
	wg        sync.WaitGroup
}

// startOrdered launches workers applying fn to each morsel. fn gets
// the worker id so it can use per-worker scratch state. Result slots
// are 1-buffered and written at most once, so delivery never blocks;
// a worker that claims a morsel before observing stop always runs it
// to completion, so the slot next() is waiting on is always being
// computed by some worker (no consumer deadlock). Slots past an
// error or abort may stay unwritten — next() never reads them because
// it hard-stops at the first error.
//
// ext is an optional external cancellation channel (Context.Done):
// when it closes, workers stop claiming morsels and a blocked next()
// returns ErrCancelled, so a consumer abandoned mid-stream (client
// disconnect, server shutdown) does not strand the driver.
func startOrdered(n, workers int, ext <-chan struct{}, fn func(worker, morsel int) (*vector.Chunk, error)) *orderedDriver {
	d := &orderedDriver{
		slots: make([]chan slotResult, n),
		done:  make(chan struct{}),
		ext:   ext,
	}
	for i := range d.slots {
		d.slots[i] = make(chan slotResult, 1)
	}
	if workers > n {
		workers = n
	}
	// The run-ahead window: workers hold a token per in-flight morsel,
	// and next() returns one per consumed slot. 2x workers keeps every
	// worker busy while bounding run-ahead.
	runAhead := 2 * workers
	if runAhead > n {
		runAhead = n
	}
	d.tokens = make(chan struct{}, n) // consumed-slot returns never block
	for i := 0; i < runAhead; i++ {
		d.tokens <- struct{}{}
	}
	var next atomic.Int64
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer d.wg.Done()
			for {
				select {
				case <-d.tokens:
				case <-d.done:
					return
				case <-d.ext: // nil when no external cancel; never fires
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || d.stop.Load() || d.interrupted() {
					return
				}
				ch, err := fn(w, i)
				d.slots[i] <- slotResult{ch: ch, err: err}
			}
		}(w)
	}
	return d
}

// next returns the next non-empty chunk in morsel order, nil at end.
// After an error the driver is exhausted: further calls return nil.
// External cancellation unblocks a waiting next with ErrCancelled —
// the slot it was waiting on may belong to a worker that exited
// without claiming it, so waiting on would deadlock.
func (d *orderedDriver) next() (*vector.Chunk, error) {
	for d.cursor < len(d.slots) {
		var r slotResult
		select {
		case r = <-d.slots[d.cursor]:
		case <-d.ext:
			d.stop.Store(true)
			d.cursor = len(d.slots)
			return nil, ErrCancelled
		}
		d.cursor++
		d.tokens <- struct{}{}
		if r.err != nil {
			d.stop.Store(true)
			d.cursor = len(d.slots)
			return nil, r.err
		}
		if r.ch != nil && r.ch.NumRows() > 0 {
			return r.ch, nil
		}
	}
	return nil, nil
}

// interrupted reports whether the external cancellation channel has
// closed (tokens and ext race in the worker select, so a ready token
// can win after cancellation; this check keeps cancelled workers from
// claiming further morsels).
func (d *orderedDriver) interrupted() bool {
	select {
	case <-d.ext:
		return true
	default:
		return false
	}
}

// abort stops morsel dispatch, wakes token-blocked workers, and waits
// for in-flight workers to finish.
func (d *orderedDriver) abort() {
	if d == nil {
		return
	}
	d.stop.Store(true)
	d.closeOnce.Do(func() { close(d.done) })
	d.wg.Wait()
}

// ------------------------------------------------------- exchange op

// parallelPipeOp is the exchange operator: it executes a scan→filter→
// project chain morsel-parallel and emits chunks in scan order.
type parallelPipeOp struct {
	pipe    *pipeSpec
	workers int
	drv     *orderedDriver
}

func (p *parallelPipeOp) Open(ctx *Context) error {
	p.drv = p.pipe.ordered(ctx, p.workers, func(ch *vector.Chunk) (*vector.Chunk, error) { return ch, nil })
	return nil
}

func (p *parallelPipeOp) Next() (*vector.Chunk, error) { return p.drv.next() }

func (p *parallelPipeOp) Close() error {
	p.drv.abort()
	p.pipe.src.finish()
	return nil
}

// ------------------------------------------------------- build helpers

// aggParallelizable reports whether an aggregation may be consumed by
// several workers. Every aggregate kind's state composes across tables
// — a DISTINCT aggregate's parallel part is a group-by on (group, value)
// pairs — but UDFs in group or argument expressions may not be called
// concurrently.
func aggParallelizable(n *plan.Aggregate) bool {
	for _, s := range n.Aggs {
		if s.Arg != nil && exprsHaveUDF([]plan.Expr{s.Arg}) {
			return false
		}
	}
	return !exprsHaveUDF(n.GroupBy)
}

// sortKeyExprs projects the key expressions out of sort keys.
func sortKeyExprs(keys []plan.SortKey) []plan.Expr {
	exprs := make([]plan.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return exprs
}
