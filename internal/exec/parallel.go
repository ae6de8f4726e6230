// Morsel-driven execution at every width. Every chain of filters and
// projections is a pipeline over a morsel source: a base table, split
// into segments that a shared atomic cursor hands to the query's
// workers, or any other operator, whose chunks the workers claim in
// order under the source's lock — one worker included: a serial query
// runs the same pipeline at width one. The workers run the chunk-local
// filter→project stages and either re-emit the surviving chunks in
// morsel order (exchange), feed thread-local aggregation tables — or,
// once those stop reducing their input, shared hash partitions — that
// are merged when the input drains (aggOp, agg.go; SELECT DISTINCT and
// the dedup stage of DISTINCT aggregates are group-bys with no
// aggregates), sort per-worker runs merged by a loser tree (sortOp,
// merge.go), or probe a shared hash-join build table. A morsel's output
// reaches the consumer as bounded chunks, one at a time. Every width
// produces the exact row order one worker produces, so both ORDER BY
// and ORDER BY-less results stay deterministic.
package exec

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// ------------------------------------------------------- morsel sources

// morselSource yields a pipeline's input as morsels. start readies it
// for one drain. claim, safe for concurrent use, hands out the next
// morsel: its index, in input order and no index twice, and its chunk —
// nil for a morsel a fused filter empties — or, once the input is
// exhausted, more false. A source that decodes does so through sc.
type morselSource interface {
	start(ctx *Context)
	claim(sc *pipeScratch) (i int, ch *vector.Chunk, more bool, err error)
}

// morselCursor hands a table source's morsels 0..n-1 out, in order, to
// any number of claimants; the source fetches each where it is claimed.
type morselCursor struct {
	n    int
	next atomic.Int64
}

func (c *morselCursor) reset(n int) {
	c.n = n
	c.next.Store(0)
}

func (c *morselCursor) take() (int, bool) {
	i := int(c.next.Add(1)) - 1
	return i, i < c.n
}

// scanSource reads one storage segment per morsel (zero-copy for
// sealed raw columns; compressed columns decode in the worker, which
// overlaps decode with compute across the pool). A Filter directly
// above the scan is fused into it (where, with fst its node's record):
// segments whose zone maps refute its kernels (Where.Refutes) are
// skipped at start — they are no morsel, so no worker claims them and no
// exchange slot waits on them — and in the others its kernels run on
// the segment's codes and only the rows it keeps are decoded
// (Where.ScanSegment). An
// aggregation that groups on codes (dense.go) pins the snapshot the
// scan reads before it starts, and has it append its rows' group ids.
type scanSource struct {
	scan   *plan.Scan
	st     *nodeStats
	where  *Where
	fst    *nodeStats
	pinned *storage.TableSnapshot // the next start's snapshot, when set
	groups *scanGroups
	store  *storage.TableSnapshot
	segs   []int // the segment of each morsel
	bases  []int64
	cur    morselCursor
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

func (s *scanSource) start(ctx *Context) {
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
	s.cur.reset(len(s.segs))
}

func (s *scanSource) claim(sc *pipeScratch) (int, *vector.Chunk, bool, error) {
	i, ok := s.cur.take()
	if !ok {
		return i, nil, false, nil
	}
	ch, err := s.fetch(i, sc)
	return i, ch, true, err
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

// opSource takes an operator's chunks as morsels, claimed under its
// lock, index and chunk together, so the indexes are the operator's
// chunk sequence — the positions aggregation and sort order rows by —
// whichever worker pulls each. It is opened and closed with the pipeline.
type opSource struct {
	op   Operator
	mu   sync.Mutex
	n    int  // the claims so far
	done bool // op is exhausted or has failed
}

func (s *opSource) start(*Context) {}

// claim holds the lock while the operator makes its chunk, which may
// wait on the operator's own workers: no index may be taken before the
// chunk it names.
func (s *opSource) claim(*pipeScratch) (int, *vector.Chunk, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.n
	s.n++
	if s.done {
		return i, nil, false, nil
	}
	ch, err := s.op.Next()
	s.done = ch == nil || err != nil
	return i, ch, !s.done || err != nil, err
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

// pipeSpec is a morsel pipeline: a source, the filter and projection
// stages over it, and the width it runs at. An operator's input —
// exchange, join probe and build, aggregation, run generation — is one.
type pipeSpec struct {
	src     morselSource
	stages  []pipeStage
	workers int
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

// pipeline returns node as a morsel pipeline: a chain of filters and
// projections over a scan reads its segments, over anything else that
// operator's chunks (opSource). It runs at workers unless a call in it
// is not Parallel — the function's declaration that concurrent
// evaluation over disjoint rows is safe, so model prediction runs
// morsel-parallel over a scan, with zone-map pruning intact, as over a
// join. A holistic function may keep unsynchronized state, so its chain
// runs at width one, and a projection over one is mlProjectOp.
func pipeline(node plan.Node, workers int, prof *Profile) (*pipeSpec, error) {
	switch n := node.(type) {
	case *plan.Scan:
		return &pipeSpec{src: &scanSource{scan: n, st: prof.node(n)}, workers: workers}, nil
	case *plan.Filter:
		p, err := pipeline(n.Child, workers, prof)
		if err != nil {
			return nil, err
		}
		if !callsAllParallel([]plan.Expr{n.Pred}) {
			p.workers = 1
		}
		if s, ok := p.src.(*scanSource); ok && len(p.stages) == 0 && s.fuse(n, prof.node(n)) {
			return p, nil
		}
		p.stages = append(p.stages, pipeStage{where: CompileWhere(n.Pred), st: prof.node(n)})
		return p, nil
	case *plan.Project:
		if callsAllParallel(n.Exprs) {
			p, err := pipeline(n.Child, workers, prof)
			if err != nil {
				return nil, err
			}
			p.stages = append(p.stages, pipeStage{exprs: n.Exprs, st: prof.node(n)})
			return p, nil
		}
	}
	op, err := buildWith(node, workers, prof)
	return opPipe(op, workers), err
}

// opPipe is the pipeline of op's chunks at width workers.
func opPipe(op Operator, workers int) *pipeSpec {
	return &pipeSpec{src: &opSource{op: op}, workers: workers}
}

// open opens the operator a pipeline reads, if it reads one; a table
// source is read from the snapshot its drain takes.
func (p *pipeSpec) open(ctx *Context) error {
	if s, ok := p.src.(*opSource); ok {
		return s.op.Open(ctx)
	}
	return nil
}

// close closes the operator a pipeline reads, drained or not.
func (p *pipeSpec) close() error {
	if s, ok := p.src.(*opSource); ok {
		return s.op.Close()
	}
	return nil
}

// claim claims the source's next morsel through the worker's scratch and
// runs the stages over it in order. Its chunk is nil when a filter
// eliminates every row.
func (p *pipeSpec) claim(sc *pipeScratch) (i int, ch *vector.Chunk, more bool, err error) {
	i, ch, more, err = p.src.claim(sc)
	for _, st := range p.stages {
		if err != nil || ch == nil {
			return i, nil, more, err
		}
		if st.where != nil {
			ch, err = st.where.filter(ch, &sc.sel)
		} else {
			cols := make([]*vector.Vector, len(st.exprs))
			for c, e := range st.exprs {
				if cols[c], err = plan.Evaluate(e, ch); err != nil {
					return i, nil, more, err
				}
			}
			ch = vector.NewChunk(cols...)
		}
		if ch != nil {
			st.st.rows.Add(int64(ch.NumRows()))
		}
	}
	return i, ch, more, err
}

// ordered starts the pipeline's workers, which run its morsels and then
// pass each non-empty result to then, whose emitted chunks are
// re-emitted in morsel order.
func (p *pipeSpec) ordered(ctx *Context, then func(ch *vector.Chunk, emit func(*vector.Chunk) error) error) *orderedDriver {
	p.src.start(ctx)
	scratch := make([]pipeScratch, max(p.workers, 1))
	for w := range scratch {
		scratch[w].seg.own = true
	}
	return startOrdered(ctx.Ctx, p.workers, func(w int) (int, *vector.Chunk, bool, error) { return p.claim(&scratch[w]) }, then)
}

// forEach drains the pipeline through a pool of up to workers
// goroutines (at least one): each claims morsels and hands fn the
// non-empty ones with its own index w — calls that share a w never
// overlap — and the morsel's. The first error stops the pool. Workers
// observe cancellation between morsels, and a cancelled drain is
// ErrCancelled: whatever fn accumulated saw only part of the input.
func (p *pipeSpec) forEach(ctx *Context, workers int, fn func(w, morsel int, ch *vector.Chunk) error) error {
	p.src.start(ctx)
	scratch := make([]pipeScratch, max(workers, 1))
	err := claimAll(workers, func(w int) (bool, error) {
		if ctx.interrupted() {
			return false, ErrCancelled
		}
		i, ch, more, err := p.claim(&scratch[w])
		if err == nil && ch != nil && ch.NumRows() > 0 {
			err = fn(w, i, ch)
		}
		return more, err
	})
	if err == nil && ctx.interrupted() {
		return ErrCancelled
	}
	return err
}

// parallelFor calls fn(w, i) once for every i below n from up to
// workers goroutines (at least one), w being the caller's index among
// them, which claim the indexes in order off a shared cursor. The first
// error stops the claiming and is returned.
func parallelFor(workers, n int, fn func(w, i int) error) error {
	var cur morselCursor
	cur.reset(n)
	return claimAll(min(workers, n), func(w int) (bool, error) {
		i, ok := cur.take()
		if !ok {
			return false, nil
		}
		return true, fn(w, i)
	})
}

// claimAll calls claim from up to workers goroutines (at least one), w
// being the caller's index among them, each until it reports nothing
// left to claim; the first error stops them all and is returned.
func claimAll(workers int, claim func(w int) (bool, error)) error {
	errs := make([]error, max(workers, 1))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more := true; more && !stop.Load(); {
				if more, errs[w] = claim(w); errs[w] != nil {
					stop.Store(true)
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

// morselSlot carries one in-flight morsel's output to the consumer: its
// chunks in order, then nil, with err set before the nil when the
// morsel failed — or endOfInput, where a morsel would be, once the
// input is exhausted.
type morselSlot struct {
	chunks chan *vector.Chunk // two: a morsel of one chunk is handed over whole, and its worker moves on
	err    error
}

var endOfInput = new(vector.Chunk)

// orderedDriver fans morsels out to workers and re-emits each morsel's
// chunks in morsel order, as serial execution emits them. Its worker
// hands the consumer a morsel's output a chunk at a time, so a morsel
// that makes many (a join key with many build rows) holds two at most.
// A token window bounds how far workers run ahead of the consumer, so
// buffered memory stays bounded and a LIMIT stops the input early.
type orderedDriver struct {
	slots    []morselSlot // morsel i's output goes through slots[i%len(slots)]
	tokens   chan struct{}
	ctx      context.Context // done once the query is cancelled or the driver stops
	stop     context.CancelFunc
	cursor   int // the morsel being consumed
	finished bool
	wg       sync.WaitGroup
}

// startOrdered launches workers that each loop claiming a morsel with
// claim — its index, in order and no index twice, its chunk, and false
// once the input is exhausted — and passing the chunk to then, which
// hands its output to emit. The run-ahead window (2x workers tokens,
// one per claim, returned as the consumer finishes a morsel) keeps
// morsel i's slot free until its worker writes to it. A claimed morsel
// runs to completion unless the driver stops, so the one next() waits
// on is always being computed (no consumer deadlock). Once parent (the
// query's context; nil for none) is done the workers stop and a blocked
// next() returns ErrCancelled, so an abandoned consumer (client
// disconnect, server shutdown) does not strand the driver.
func startOrdered(parent context.Context, workers int, claim func(w int) (int, *vector.Chunk, bool, error), then func(ch *vector.Chunk, emit func(*vector.Chunk) error) error) *orderedDriver {
	workers = max(workers, 1)
	d := &orderedDriver{slots: make([]morselSlot, 2*workers), tokens: make(chan struct{}, 2*workers)}
	d.ctx, d.stop = context.WithCancel(cmp.Or(parent, context.Background()))
	for i := range d.slots {
		d.slots[i].chunks = make(chan *vector.Chunk, 2)
		d.tokens <- struct{}{}
	}
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer d.wg.Done()
			var slot *morselSlot
			send := func(ch *vector.Chunk) error {
				select {
				case slot.chunks <- ch:
					return nil
				case <-d.ctx.Done():
					return ErrCancelled
				}
			}
			emit := func(ch *vector.Chunk) error {
				if ch == nil || ch.NumRows() == 0 {
					return nil
				}
				return send(ch)
			}
			for {
				select {
				case <-d.tokens:
				case <-d.ctx.Done():
					return
				}
				if d.ctx.Err() != nil { // a ready token can win the select
					return
				}
				i, ch, more, err := claim(w)
				slot = &d.slots[i%len(d.slots)]
				if !more {
					_ = send(endOfInput) // the worker stops either way
					return
				}
				if err == nil && ch != nil {
					err = then(ch, emit)
				}
				slot.err = err
				if send(nil) != nil {
					return
				}
			}
		}(w)
	}
	return d
}

// next returns the next non-empty chunk in morsel order, nil at end.
// After an error the driver is exhausted: further calls return nil.
// Cancellation unblocks a waiting next with ErrCancelled — the morsel it
// was waiting on may belong to a worker that exited without claiming
// it, so waiting on would deadlock.
func (d *orderedDriver) next() (*vector.Chunk, error) {
	for !d.finished {
		slot := &d.slots[d.cursor%len(d.slots)]
		select {
		case ch := <-slot.chunks:
			switch {
			case ch == endOfInput:
				d.finished = true
			case ch != nil:
				return ch, nil
			case slot.err != nil:
				return d.fail(slot.err)
			default:
				d.cursor++
				d.tokens <- struct{}{}
			}
		case <-d.ctx.Done():
			return d.fail(ErrCancelled)
		}
	}
	return nil, nil
}

// fail ends the stream at err and stops the workers.
func (d *orderedDriver) fail(err error) (*vector.Chunk, error) {
	d.stop()
	d.finished = true
	return nil, err
}

// abort stops the workers, wherever they wait, and waits for them.
func (d *orderedDriver) abort() {
	if d == nil {
		return
	}
	d.stop()
	d.wg.Wait()
}

// ------------------------------------------------------- exchange op

// parallelPipeOp is the exchange operator: it executes a pipeline
// morsel-parallel and emits its chunks in input order.
type parallelPipeOp struct {
	pipe *pipeSpec
	drv  *orderedDriver
}

func (p *parallelPipeOp) Open(ctx *Context) error {
	if err := p.pipe.open(ctx); err != nil {
		return err
	}
	p.drv = p.pipe.ordered(ctx, func(ch *vector.Chunk, emit func(*vector.Chunk) error) error { return emit(ch) })
	return nil
}

func (p *parallelPipeOp) Next() (*vector.Chunk, error) { return p.drv.next() }

func (p *parallelPipeOp) Close() error {
	p.drv.abort()
	return p.pipe.close()
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
