// Partitioned hash aggregation, in memory and out of core: what a
// consumer does once a table of its own stops paying.
//
// A consumer pre-aggregates its share of the input into a thread-local
// table until the query's memory budget is exceeded and the table is a
// fair share of it (shouldSpill), or — when several consumers feed the
// aggregation — a sample window of input created more than half as many
// groups as it had rows: the table reduces nothing, and every group in
// it would be inserted a second time at the merge. Either way the
// consumer makes the one transition there is (aggConsumer.partition):
// its table's groups are merged into the aggregation's shared hash
// partitions (dumpTable), and every later chunk's evaluated rows (keys,
// arguments, the hash computed once per chunk, the global input
// position) are routed there. The partitions are a pass of the grace
// engine (grace.go), which owns routing, eviction and reload; what is
// the aggregation's is the two row layouts (aggLayout), the folds
// (consumeVecs for raw rows, mergePartial for groups) and how the
// partitions end (aggSpiller.finish, processAggPartition), as runs the
// run merger interleaves.
//
// An in-memory high-cardinality aggregation is thus a spilled one that
// never evicts: no file, no spill manager. Tables never handed over (low
// cardinality, short inputs) meet in the same partitions at the finish;
// a lone table emits as it is.
//
// Out of core, what a spilled partition keeps between writes is at most
// one chunk per stream: rows are staged in columns that grow to
// DefaultChunkSize rows of the stream's layout once, are written as a
// chunk when the next block would overfill them and are reset for the
// next; the stream's last flush drops them (grace.stage; not charged to
// the budget).
// Evicted partitions end one at a time, each with the whole budget: the
// routers are closed by then, and the runs emitted so far are held
// (aggOut.keep) only until a reload takes the query over its budget with
// them — shouldSpill over the reload's table and the held runs — which
// writes them to the out-file (aggOut.evict); only a table over the
// budget on its own re-partitions. A partition that fits the budget
// alone is read back once and never split.
//
// Rows of one group hash to one partition chain and firstSeen is the
// minimum input position over a group's rows — neither depends on who
// saw which row when — so output bytes do not depend on the worker
// count, the budget, or the row at which a consumer switched. The one
// caveat is parallel execution's own: SUM/AVG over DOUBLE add in the
// order rows and partials are folded, so float sums can differ in the
// last ulps; integer sums, COUNT and MIN/MAX are exact, and so is every
// DISTINCT aggregate but a float SUM/AVG, whose fold order is fixed
// instead (agg.go, aggregation).
package exec

import (
	"slices"
	"sync"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// aggSampleRows is the window over which a consumer measures what
// pre-aggregation buys it; more than one new group per two rows is
// nothing. Four chunks: 64 groups never look like 64k, and eight
// consumers of 256k rows give up a quarter of them to it. HighCard
// and IntStrKey (0.9 new groups a row in the first window) switch;
// LowCard and the grouped DISTINCT micro (0.1) never do.
const aggSampleRows = 4 * vector.DefaultChunkSize

// The aggregation's row streams in its passes of the grace engine.
const (
	partialRows = 0 // groups: [group cols..., firstSeen, then per aggregate its state columns (aggShape.state)]
	rawRows     = 1 // input: [group cols..., arg cols (non-nil args only)..., pos]
)

// ------------------------------------------------------- spilled rows

// aggLayout describes the spilled row formats of one aggregation, fixed
// by the plan.
type aggLayout struct {
	spec    *plan.Aggregate
	shapes  []aggShape
	numKeys int
	rows    graceLayout
}

func newAggLayout(spec *plan.Aggregate, st *nodeStats) *aggLayout {
	t := newAggTable(spec, st)
	l := &aggLayout{spec: spec, shapes: t.shapes, numKeys: len(t.gi.keys), rows: graceLayout{label: "agg", st: st}}
	var raw []vector.Type
	for _, k := range t.gi.keys {
		raw = append(raw, k.Type())
	}
	partial := append(slices.Clone(raw), vector.Int64)
	for _, sh := range l.shapes {
		if sh.spec.Arg != nil {
			raw = append(raw, sh.argType)
		}
		partial = append(partial, sh.state...)
	}
	raw = append(raw, vector.Int64)
	l.rows.types = [2][]vector.Type{partialRows: partial, rawRows: raw}
	l.rows.nullable = [2]int{partialRows: l.numKeys, rawRows: len(raw) - 1}
	return l
}

// rawArgs spreads the argument columns of raw rows back over the
// aggregates: nil for COUNT(*).
func (l *aggLayout) rawArgs(cols []*vector.Vector) []*vector.Vector {
	args, rest := make([]*vector.Vector, len(l.shapes)), cols[l.numKeys:]
	for i := range l.shapes {
		if l.shapes[i].spec.Arg != nil {
			args[i], rest = rest[0], rest[1:]
		}
	}
	return args
}

// consumeRaw folds raw rows, hashed, into a table.
func (l *aggLayout) consumeRaw(t *aggTable, cols []*vector.Vector, hashes []uint64) error {
	return t.consumeVecs(cols[:l.numKeys], hashes, l.rawArgs(cols), cols[len(cols)-1].Int64s())
}

// chunk is the batch in partial-row column form.
func (p *aggPartial) chunk() []*vector.Vector {
	cols := append(slices.Clone(p.keys), vector.FromInt64s(p.firstSeen))
	for _, st := range p.state {
		cols = append(cols, st...)
	}
	return cols
}

// readPartial is chunk's inverse over columns read back from disk
// (bytes this process may not have just written): it validates them
// against the layout and aliases them as a batch.
func (l *aggLayout) readPartial(cols []*vector.Vector) (*aggPartial, error) {
	if err := checkSpilled(cols, l.rows.types[partialRows], l.numKeys); err != nil {
		return nil, err
	}
	p := &aggPartial{keys: cols[:l.numKeys], firstSeen: cols[l.numKeys].Int64s(), state: make([][]*vector.Vector, len(l.shapes))}
	rest := cols[l.numKeys+1:]
	for i, sh := range l.shapes {
		p.state[i], rest = rest[:len(sh.state)], rest[len(sh.state):]
	}
	return p, nil
}

// ------------------------------------------------------- partitions

// aggSpiller is an aggregation's hash partitions at one recursion level:
// a pass of the grace engine (grace.go) whose resident state is a table
// per partition, shared by every consumer that stopped pre-aggregating.
// Its routers fold raw rows with consumeVecs, batches of groups merge
// with mergePartial, and an evicted table leaves as partial rows.
type aggSpiller struct {
	layout *aggLayout
	g      *grace
	tables []*aggTable // the resident partitions' groups; nil until a row arrives
}

func newAggSpiller(layout *aggLayout, g *grace) *aggSpiller {
	s := &aggSpiller{layout: layout, g: g, tables: make([]*aggTable, len(g.parts))}
	g.evict = func(p int) []*vector.Vector {
		t := s.tables[p]
		s.tables[p] = nil
		return t.partial(identitySel(t.numGroups())).chunk()
	}
	return s
}

func (s *aggSpiller) table(p int) *aggTable {
	if s.tables[p] == nil {
		s.tables[p] = newAggTable(s.layout.spec, s.layout.rows.st)
	}
	return s.tables[p]
}

// foldRaw is the routers' fold: raw rows into partition p's table.
func (s *aggSpiller) foldRaw(p int, cols []*vector.Vector, hashes []uint64) (int64, error) {
	t := s.table(p)
	prev := t.size()
	err := s.layout.consumeRaw(t, cols, hashes)
	return t.size() - prev, err
}

// foldPartial merges groups in partial-row form into partition p's table.
func (s *aggSpiller) foldPartial(p int, cols []*vector.Vector, _ []uint64) (int64, error) {
	batch, err := s.layout.readPartial(cols)
	if err != nil {
		return 0, err
	}
	t := s.table(p)
	prev := t.size()
	t.mergePartial(batch)
	return t.size() - prev, nil
}

// absorbRows hands groups to their partitions: batch makes the partial
// rows of the groups sel, which are those of one partition by their
// hashes. Safe for concurrent use; ends by evicting as route does.
func (s *aggSpiller) absorbRows(hashes []uint64, batch func(sel []int) []*vector.Vector) error {
	for p, rows := range s.g.split(hashes, nil, nil) {
		if len(rows) == 0 {
			continue
		}
		if err := s.g.deliver(p, partialRows, batch(rows), nil, s.foldPartial); err != nil {
			return err
		}
	}
	return s.g.spillUntilFits()
}

// dumpTable absorbs every group of t into the partitions and accounts
// the table's memory as released (the caller drops the table).
func (s *aggSpiller) dumpTable(t *aggTable) error {
	err := s.absorbRows(t.gi.hashes[:t.numGroups()], func(sel []int) []*vector.Vector { return t.partial(sel).chunk() })
	if err == nil {
		s.g.ctx.memShrink(t.size())
	}
	return err
}

// finish turns every partition into firstSeen-sorted runs: the one way
// an aggregation's partitions end. Up to workers owners claim partitions
// off a cursor; an owner folds in what the routers' blocks and then the
// thread-local tables still hold for its partition, each in consumer
// order, flushes what is staged for disk and, if the partition is
// resident, emits it: its groups are already merged by key. The routers
// then close, and evicted partitions re-aggregate one at a time, since a
// reloaded partition may need the whole budget: nothing of the pass
// holds any of it by then but the runs out keeps, which a reload writes
// to disk before it would re-partition.
func (s *aggSpiller) finish(routers []*graceRouter, tables []*aggTable, workers int, out *aggOut) ([]*mergeRun, error) {
	g := s.g
	sels := make([][][]int, len(tables))
	for i, t := range tables {
		sels[i] = g.split(t.gi.hashes[:t.numGroups()], nil, nil)
	}
	runs := make([][]*mergeRun, len(g.parts))
	err := parallelFor(workers, len(g.parts), func(_, p int) error {
		for _, r := range routers {
			if err := r.flush(p); err != nil {
				return err
			}
		}
		for i, t := range tables {
			if len(sels[i][p]) > 0 {
				if err := g.deliver(p, partialRows, t.partial(sels[i][p]).chunk(), nil, s.foldPartial); err != nil {
					return err
				}
			}
		}
		if err := g.flushStreams(p); err != nil {
			return err
		}
		t := s.tables[p]
		if t == nil || t.numGroups() == 0 {
			return nil
		}
		s.tables[p], g.parts[p].bytes = nil, 0 // emitAggRun returns the table's charge, which is the partition's
		mr, err := emitAggRun(g.ctx, t, out)
		runs[p] = []*mergeRun{mr}
		return err
	})
	for _, r := range routers { // flushed: what their blocks held is the reloads'
		r.close()
	}
	var spilled, resident int64
	for p := range g.parts {
		if st := &g.parts[p].streams; err == nil && len(st[0].refs)+len(st[1].refs) > 0 {
			spilled++
			runs[p], err = processAggPartition(s, p, out)
		} else if runs[p] != nil {
			resident++
		}
	}
	g.report(spilled, resident)
	s.abandon() // every partition is consumed, or never will be
	return slices.Concat(runs...), err
}

// abandon drops what the partitions still hold: their resident tables'
// charge goes back to the budget, and the file goes. A no-op after finish.
func (s *aggSpiller) abandon() {
	clear(s.tables)
	s.g.abandon()
}

// ------------------------------------------------------- consumer

// aggShared is what the consumers of one table of an aggregation
// share: the partitions, created by the first to stop pre-aggregating
// (or at the merge), and whether the consumers are several — adaptive;
// one alone keeps its table however little it reduces. st is the
// node's record.
type aggShared struct {
	mu       sync.Mutex
	spiller  *aggSpiller
	adaptive bool
	st       *nodeStats
}

// get returns the shared partitions, creating them on first use.
func (sh *aggShared) get(ctx *Context, spec *plan.Aggregate) *aggSpiller {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.spiller == nil {
		layout := newAggLayout(spec, sh.st)
		sh.spiller = newAggSpiller(layout, newGrace(ctx, &layout.rows, 4, 0))
	}
	return sh.spiller
}

// aggConsumer is one consumption thread's aggregation state: a table of
// its own, then — after partition — a router into the shared partitions.
type aggConsumer struct {
	ctx    *Context
	shared *aggShared
	in     *aggInputs
	pos    []int64
	table  *aggTable    // nil once partitioned
	router *graceRouter // nil until then
	src    []*vector.Vector
	idCol  int // a dense table's: the input column of the rows' group ids

	// rows counts the input; the sample window in progress began at row
	// winStart, when the table held winGroups groups.
	rows, winStart, winGroups int
}

func newAggConsumer(ctx *Context, spec *plan.Aggregate, shared *aggShared) *aggConsumer {
	return &aggConsumer{ctx: ctx, shared: shared, in: newAggInputs(spec), table: newAggTable(spec, shared.st)}
}

// slotted makes the consumer's table dense over dom, its rows' group
// ids arriving in input column idCol. The table is charged to the
// budget whole, now, and never partitions.
func (c *aggConsumer) slotted(dom *groupDomain, idCol int) {
	c.table = newDenseTable(c.in.spec, c.shared.st, dom)
	c.in.slotted, c.idCol = true, idCol
	c.ctx.memGrow(c.table.size())
}

// consume folds one chunk. morsel is the chunk's global input index.
func (c *aggConsumer) consume(ch *vector.Chunk, morsel int) error {
	c.pos = morselPos(c.pos, morsel, ch.NumRows())
	return c.consumeAt(ch, c.pos)
}

// consumeAt is consume for rows that bring their unique global input
// positions with them.
func (c *aggConsumer) consumeAt(ch *vector.Chunk, pos []int64) error {
	in := c.in
	if err := in.eval(ch); err != nil {
		return err
	}
	t := c.table
	if t == nil {
		c.src = append(c.src[:0], in.keys...)
		for _, a := range in.args {
			if a != nil {
				c.src = append(c.src, a)
			}
		}
		c.src = append(c.src, vector.FromInt64s(pos))
		return c.router.route(c.src, in.hashes, nil)
	}
	prev := t.size()
	if t.dom != nil {
		t.ids = ch.Col(c.idCol).Int32s()
		err := t.consumeIDs(in.args, pos)
		c.ctx.memGrow(t.size() - prev)
		return err
	}
	if err := t.consumeVecs(in.keys, in.hashes, in.args, pos); err != nil {
		return err
	}
	c.ctx.memGrow(t.size() - prev)
	c.rows += len(pos)
	over, reducing := c.ctx.shouldSpill(t.size()), true
	if seen := c.rows - c.winStart; c.shared.adaptive && seen >= aggSampleRows {
		reducing = 2*(t.numGroups()-c.winGroups) <= seen
		c.winStart, c.winGroups = c.rows, t.numGroups()
	}
	if !over && reducing {
		return nil
	}
	return c.partition(over)
}

// partition is the transition: the table goes to the shared partitions
// and the rest of the input is routed there.
func (c *aggConsumer) partition(overflowed bool) error {
	sp := c.shared.get(c.ctx, c.in.spec)
	if overflowed {
		sp.g.overflowed.Store(true)
	}
	c.shared.st.partitionedAt.CompareAndSwap(0, int64(c.rows))
	c.router = sp.g.newRouter(rawRows, sp.foldRaw)
	if err := sp.dumpTable(c.table); err != nil {
		return err
	}
	c.table = nil
	return nil
}

// abandon returns what the consumer and the shared partitions hold to
// the budget when their aggregation will not be finished (an error, a
// cancelled or closed query). A no-op after finishAggEmit.
func (c *aggConsumer) abandon() {
	if c.table != nil {
		c.ctx.memShrink(c.table.size())
		c.table = nil
	}
	c.router.close()
	c.router = nil
	if sp := c.shared.spiller; sp != nil {
		sp.abandon()
	}
}

// ------------------------------------------------------- emit

// finishAggEmit turns the consumers' accumulated state into the merger
// that streams the result. Dense tables merge slot range by slot range
// (finishDense). A lone table no partition took from emits as it is:
// every serial query within its budget. Anything else meets in the
// shared partitions (aggSpiller.finish), whose runs the merger
// interleaves back into global first-appearance order.
func finishAggEmit(ctx *Context, spec *plan.Aggregate, consumers []*aggConsumer, shared *aggShared) (_ *runMerger, err error) {
	var tables []*aggTable
	var routers []*graceRouter
	for _, c := range consumers {
		if c.table != nil && c.table.numGroups() > 0 {
			tables = append(tables, c.table)
		}
		if c.router != nil {
			routers = append(routers, c.router)
		}
	}
	out := &aggOut{ctx: ctx, st: shared.st}
	var runs []*mergeRun
	switch {
	case len(tables) > 0 && tables[0].dom != nil:
		var run *mergeRun
		run, err = finishDense(ctx, tables, len(consumers))
		runs = []*mergeRun{run}
		// The first table lives on in the run, and its charge with the
		// merger.
		out.held += tables[0].size()
		for _, c := range consumers {
			if c.table == tables[0] {
				c.table = nil
			}
		}
	case shared.spiller == nil && len(tables) <= 1:
		t := newAggTable(spec, shared.st)
		if len(tables) == 1 {
			t = tables[0]
		}
		t.ensureGlobalGroup()
		var run *sortedRun
		run, err = t.emitRun(ctx, nil)
		runs = []*mergeRun{newMemRun(run)}
	default:
		runs, err = shared.get(ctx, spec).finish(routers, tables, len(consumers), out)
	}
	// The aggregation state dies here; only the emitted runs live on.
	for _, c := range consumers {
		c.abandon()
	}
	if err != nil {
		(&runMerger{ctx: ctx, files: out.files, held: out.held}).close()
		return nil, err
	}
	return newRunMerger(ctx, nil, runs, -1, out.files, out.held), nil
}

// aggOut is where an aggregation's partition runs go: held in memory,
// their bytes accounted into held (released when the merger closes),
// until a reloaded partition needs the room (processAggPartition) and
// evict writes them to one shared out-file, created on first need and
// owned by the merger, so merge-time memory stays bounded by
// O(partitions) windows. Partition owners share it.
type aggOut struct {
	ctx   *Context
	st    *nodeStats // the node's record: runs spilled
	mu    sync.Mutex
	files []*spill.File // none, or the out-file
	held  int64
	kept  []*mergeRun // the runs held in memory and not yet evicted
}

// keep holds one partition's run.
func (o *aggOut) keep(run *sortedRun) *mergeRun {
	mr := newMemRun(run)
	if run.data.NumRows() == 0 {
		return mr
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	b := runBytes(run)
	o.held += b
	o.ctx.memGrow(b)
	o.kept = append(o.kept, mr)
	return mr
}

// evict writes held runs to the out-file, oldest first, while over says
// the room is still needed, and returns their bytes to the budget. A run
// turns into its spilled form in place: the merger has not seen it yet.
func (o *aggOut) evict(over func() bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for ; len(o.kept) > 0 && over(); o.kept = o.kept[1:] {
		if o.files == nil {
			f, err := o.ctx.spillManager().Create("agg-out")
			if err != nil {
				return err
			}
			o.files = []*spill.File{f}
		}
		mr := o.kept[0]
		run := mr.cur
		spilled, err := spillSortedRun(o.files[0], run, nil)
		if err != nil {
			return err
		}
		*mr = *spilled
		b := runBytes(run)
		o.held -= b
		o.ctx.memShrink(b)
		o.st.runs.Add(1)
	}
	return nil
}

// emitAggRun emits a finished table as a run and releases its bytes.
func emitAggRun(ctx *Context, t *aggTable, out *aggOut) (*mergeRun, error) {
	run, err := t.emitRun(ctx, nil)
	ctx.memShrink(t.size())
	if err != nil {
		return nil, err
	}
	return out.keep(run), nil
}

// processAggPartition re-aggregates evicted partition p of sp: partial
// rows merge by key, raw rows replay, and an over-budget partition
// re-partitions at the next hash level. It returns the partition's
// groups as firstSeen-sorted runs (several after recursion).
func processAggPartition(sp *aggSpiller, p int, out *aggOut) ([]*mergeRun, error) {
	ctx, layout := sp.g.ctx, sp.layout
	t := newAggTable(layout.spec, layout.rows.st)
	var sub *aggSpiller
	var router *graceRouter
	defer func() {
		if t != nil {
			ctx.memShrink(t.size())
		}
		router.close()
		if sub != nil {
			sub.abandon()
		}
	}()

	// grown charges what the last chunk added to t. While t and the runs
	// held so far are over budget it writes runs out and then, if t alone
	// is over it still, hands t to a sub-spiller on the next hash nibble.
	over := func() bool { return ctx.shouldSpill(t.size() + out.held) }
	grown := func(prev int64) error {
		ctx.memGrow(t.size() - prev)
		if err := out.evict(over); err != nil || !ctx.shouldSpill(t.size()) {
			return err
		}
		sub = newAggSpiller(layout, sp.g.sub())
		router = sub.g.newRouter(rawRows, sub.foldRaw)
		err := sub.dumpTable(t)
		if err == nil {
			t = nil
		}
		return err
	}

	// Partials first, then raw rows: every group a raw row touches
	// either already has its pre-spill partial merged in, or never had
	// one.
	var hashes []uint64
	err := sp.g.reload(p, partialRows, func(cols []*vector.Vector) error {
		if sub != nil {
			hashes = hashKeyRows(cols[:layout.numKeys], cols[0].Len(), hashes)
			return sub.absorbRows(hashes, func(sel []int) []*vector.Vector { return gatherVecs(cols, sel) })
		}
		batch, err := layout.readPartial(cols)
		if err != nil {
			return err
		}
		prev := t.size()
		t.mergePartial(batch)
		return grown(prev)
	})
	if err != nil {
		return nil, err
	}
	err = sp.g.reload(p, rawRows, func(cols []*vector.Vector) error {
		hashes = hashKeyRows(cols[:layout.numKeys], cols[0].Len(), hashes)
		if sub != nil {
			return router.route(cols, hashes, nil)
		}
		prev := t.size()
		if err := layout.consumeRaw(t, cols, hashes); err != nil {
			return err
		}
		return grown(prev)
	})
	if err != nil {
		return nil, err
	}
	if sub == nil {
		mr, err := emitAggRun(ctx, t, out)
		t = nil
		return []*mergeRun{mr}, err
	}
	return sub.finish([]*graceRouter{router}, nil, 1, out)
}
