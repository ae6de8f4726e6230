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

	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// ------------------------------------------------------- morsel sources

// morselSource yields the input of a parallel pipeline as independently
// fetchable morsels, counting the rows it reads into its node's record.
// open snapshots the input and returns the morsel count; fetch must be
// safe for concurrent use, and returns nil for a morsel a fused filter
// empties. A source that decodes does so through sc.
type morselSource interface {
	open(ctx *Context) int
	fetch(i int, sc *pipeScratch) (*vector.Chunk, error)
}

// scanSource reads one storage segment per morsel (zero-copy for
// sealed raw columns; compressed columns decode in the worker, which
// overlaps decode with compute across the pool). A Filter directly
// above the scan is fused into it (where, with fst its node's record):
// segments whose zone maps refute its kernels (Where.Refutes) are
// skipped at open — they are no morsel, so no worker claims them and no
// exchange slot waits on them — and in the others its kernels run on
// the segment's codes and only the rows it keeps are decoded
// (Where.ScanSegment). An
// aggregation that groups on codes (dense.go) pins the snapshot the
// scan reads before it opens, and has it append its rows' group ids.
type scanSource struct {
	scan   *plan.Scan
	st     *nodeStats
	where  *Where
	fst    *nodeStats
	pinned *storage.TableSnapshot // the next open's snapshot, when set
	groups *scanGroups
	store  *storage.TableSnapshot
	segs   []int // the segment of each morsel
	bases  []int64
}

// everyRow is the Where of a scan without a fused filter.
var everyRow = &Where{}

// filter is the scan's fused Where, everyRow without one.
func (s *scanSource) filter() *Where {
	if s.where == nil {
		return everyRow
	}
	return s.where
}

// outWidth is the number of columns the scan emits before any group
// ids: its table columns and __rowpos.
func (s *scanSource) outWidth() int {
	if s.scan.RowPos {
		return s.scan.Width() + 1
	}
	return s.scan.Width()
}

func (s *scanSource) open(ctx *Context) int {
	s.store, s.pinned = s.pinned, nil
	if s.store == nil {
		s.store = ctx.tableData(s.scan.Table)
	}
	if s.scan.RowPos {
		s.bases = rowPosBases(s.store)
	}
	s.segs = s.segs[:0]
	for i := range s.store.NumSegments() {
		if !s.filter().Refutes(s.store.Zones(i), s.scan.Projection) {
			s.segs = append(s.segs, i)
		}
	}
	s.st.skipped.Add(int64(s.store.NumSegments() - len(s.segs)))
	return len(s.segs)
}

func (s *scanSource) fetch(i int, sc *pipeScratch) (*vector.Chunk, error) {
	seg := &sc.seg
	seg.skip = nil
	if s.groups != nil {
		seg.skip = s.groups.skip
	}
	sel, cols, err := s.filter().ScanSegment(s.store, s.segs[i], s.scan.Projection, seg, true)
	if err != nil {
		return nil, err
	}
	s.st.scanned.Add(1)
	s.st.rows.Add(int64(seg.cols[0].Rows))
	s.st.decoded.Add(seg.decoded)
	s.st.coded.Add(seg.coded)
	seg.decoded, seg.coded = 0, 0
	if s.fst != nil {
		s.fst.rows.Add(int64(len(sel)))
	}
	if len(sel) == 0 {
		return nil, nil
	}
	if s.scan.RowPos {
		cols = append(cols, rowPositions(s.bases[s.segs[i]], sel))
	}
	if s.groups != nil {
		if cols, err = s.groups.appendIDs(cols, seg.cols, s.segs[i], sel, &sc.ids); err != nil {
			return nil, err
		}
	}
	return vector.NewChunk(cols...), nil
}

// fuse makes f's predicate the scan's filter, unless the scan already
// has one or the predicate reads the __rowpos column, which the scan
// appends after filtering.
func (s *scanSource) fuse(f *plan.Filter, st *nodeStats) bool {
	if s.where != nil {
		return false
	}
	if s.scan.RowPos {
		reads := false
		plan.EachColRef(f.Pred, func(c *plan.ColRef) { reads = reads || c.Idx >= s.scan.Width() })
		if reads {
			return false
		}
	}
	s.where, s.fst = CompileWhere(f.Pred), st
	return true
}

// materialSource slices a materialized table into chunk-sized morsels.
type materialSource struct {
	data *vector.Table
	st   *nodeStats
}

func (m *materialSource) open(*Context) int { return numChunks(m.data) }

func (m *materialSource) fetch(i int, _ *pipeScratch) (*vector.Chunk, error) {
	ch := chunkOf(m.data, i)
	m.st.rows.Add(int64(ch.NumRows()))
	return ch, nil
}

// numChunks is how many chunk-sized slices data has.
func numChunks(data *vector.Table) int {
	return (data.NumRows() + vector.DefaultChunkSize - 1) / vector.DefaultChunkSize
}

// chunkOf returns data's chunk-sized slice i.
func chunkOf(data *vector.Table, i int) *vector.Chunk {
	from := i * vector.DefaultChunkSize
	return data.Chunk().Slice(from, min(from+vector.DefaultChunkSize, data.NumRows()))
}

// ------------------------------------------------------- pipeline spec

// pipeStage is one chunk-local transformation: a filter when where is
// set, otherwise a projection. It counts its output rows into its
// node's record st — pipelined stages have no operator boundary to
// count at.
type pipeStage struct {
	where *Where
	exprs []plan.Expr
	st    *nodeStats
}

// pipeSpec is a morsel-parallelizable scan→filter→project chain.
type pipeSpec struct {
	src    morselSource
	stages []pipeStage
}

// pipeScratch holds one worker's reusable buffers: its stage filters'
// selection vector and its scan's SegmentScratch. A decode buffer never
// outlives the worker's next morsel. Drained by a blocking consumer
// (forEach), whose fn is done with a chunk when it returns, every morsel
// decodes into them. Through the exchange (ordered), whose chunks go
// downstream, the scratch owns nothing it emits: only what a fused
// filter reads is decoded into the buffers, and a column decoded whole
// there that goes on because every row passed leaves its slot.
type pipeScratch struct {
	sel []int
	seg SegmentScratch
	ids [][]int32 // a grouping scan's id columns (scanGroups)
}

// extractPipe returns the pipeline form of node when every operator in
// the chain is chunk-local, nil otherwise. UDF-bearing stages are
// admitted only when every call is marked Parallel: that flag is the
// function's declaration that concurrent evaluation over disjoint row
// ranges is safe — the same contract core.ScalarFunc.Call relies on —
// so model prediction runs morsel-parallel directly over base scans
// with zone-map pruning intact. Holistic UDFs (not Parallel) may keep
// unsynchronized state across calls and stay on the serial
// materializing path.
func extractPipe(node plan.Node, prof *Profile) *pipeSpec {
	switch n := node.(type) {
	case *plan.Scan:
		return &pipeSpec{src: &scanSource{scan: n, st: prof.node(n)}}
	case *plan.Material:
		return &pipeSpec{src: &materialSource{data: n.Data, st: prof.node(n)}}
	case *plan.Filter:
		if !callsAllParallel([]plan.Expr{n.Pred}) {
			return nil
		}
		p := extractPipe(n.Child, prof)
		if p == nil {
			return nil
		}
		if s, ok := p.src.(*scanSource); ok && len(p.stages) == 0 && s.fuse(n, prof.node(n)) {
			return p
		}
		p.stages = append(p.stages, pipeStage{where: CompileWhere(n.Pred), st: prof.node(n)})
		return p
	case *plan.Project:
		if !callsAllParallel(n.Exprs) {
			return nil
		}
		p := extractPipe(n.Child, prof)
		if p == nil {
			return nil
		}
		p.stages = append(p.stages, pipeStage{exprs: n.Exprs, st: prof.node(n)})
		return p
	}
	return nil
}

// run fetches morsel i through the worker's scratch and runs the
// pipeline stages over it. It returns nil when a filter eliminates
// every row.
func (p *pipeSpec) run(i int, sc *pipeScratch) (*vector.Chunk, error) {
	ch, err := p.src.fetch(i, sc)
	if err != nil || ch == nil {
		return nil, err
	}
	return runStages(p.stages, ch, sc)
}

// runStages runs the stages over ch in order, nil when a filter
// eliminates every row.
func runStages(stages []pipeStage, ch *vector.Chunk, sc *pipeScratch) (*vector.Chunk, error) {
	for _, st := range stages {
		if st.where != nil {
			out, err := st.where.filter(ch, &sc.sel)
			if err != nil || out == nil {
				return nil, err
			}
			ch = out
		} else {
			cols := make([]*vector.Vector, len(st.exprs))
			for i, e := range st.exprs {
				v, err := plan.Evaluate(e, ch)
				if err != nil {
					return nil, err
				}
				cols[i] = v
			}
			ch = vector.NewChunk(cols...)
		}
		st.st.rows.Add(int64(ch.NumRows()))
	}
	return ch, nil
}

// ordered starts workers that run the pipeline's morsels and then over
// what is left of each; the results are re-emitted in morsel order.
func (p *pipeSpec) ordered(ctx *Context, workers int, then func(*vector.Chunk) (*vector.Chunk, error)) *orderedDriver {
	n := p.src.open(ctx)
	scratch := make([]pipeScratch, workers)
	for w := range scratch {
		scratch[w].seg.own = true
	}
	return startOrdered(n, workers, ctx.done(), func(w, i int) (*vector.Chunk, error) {
		ch, err := p.run(i, &scratch[w])
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
		ch, err := p.run(i, &scratch[w])
		if err == nil && ch != nil && ch.NumRows() > 0 {
			err = fn(w, i, ch)
		}
		return err
	})
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

// close ends the input, drained or not.
func (f *chunkFeed) close() error {
	if f.pipe != nil {
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
	ext       <-chan struct{} // external cancellation (the query context's Done)
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
// ext is the query context's Done channel (nil when there is none):
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
