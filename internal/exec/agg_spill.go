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
//
//  1. Its table's groups are merged into the aggregation's shared hash
//     partitions: spillFanout tables, each holding the groups one nibble
//     of the remixed hash selects (dumpTable).
//  2. Every later chunk's evaluated rows (keys, arguments, the hash
//     computed once per chunk, the global input position) are scattered
//     into the consumer's own fixed-capacity block per partition
//     (aggRouter). A full block is folded into its partition's table
//     under the partition's lock: every group is inserted once, into a
//     table a sixteenth the size. Rows of an evicted partition append
//     to its file as "raw" rows without touching a hash table at all.
//  3. Under a budget only: when the resident partitions outgrow it, the
//     largest are evicted — their groups written as "partial" rows (key
//     columns, firstSeen, each aggregate's typed state columns) — until
//     the rest fits (spillUntilFits).
//  4. When the input drains each partition is finished by one owner
//     (aggSpiller.finish), which folds in what the thread-local tables
//     still hold for it and emits its groups sorted by firstSeen as a
//     run. Evicted partitions are reloaded one at a time — partials
//     merge by key, raw rows re-aggregate — and re-partition on the next
//     nibble when they do not fit. The run merger interleaves the runs.
//
// An in-memory high-cardinality aggregation is thus a spilled one that
// never evicts: no file, no spill manager. Tables never handed over (low
// cardinality, short inputs) meet in the same partitions at step 4; a
// lone table emits as it is.
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
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

const (
	// spillFanout is the partition fan-out per recursion level (one
	// nibble of the remixed hash, partitionOf).
	spillFanout = 16

	// maxSpillLevels caps re-partitioning depth; a partition that still
	// exceeds the budget at the deepest level (keys that defeat
	// 16^maxSpillLevels-way splitting) is processed in memory —
	// correctness over the budget, degraded gracefully.
	maxSpillLevels = 8

	// aggSampleRows is the window over which a consumer measures what
	// pre-aggregation buys it; more than one new group per two rows is
	// nothing. Four chunks: 64 groups never look like 64k, and eight
	// consumers of 256k rows give up a quarter of them to it. HighCard
	// and IntStrKey (0.9 new groups a row in the first window) switch;
	// LowCard and the grouped DISTINCT micro (0.1) never do.
	aggSampleRows = 4 * vector.DefaultChunkSize

	// aggBlockRows is a scatter block's capacity when no budget says
	// less. A fold touches some eight cache lines a group (slot, key,
	// state columns); 2048 rows into a partition's ~4k groups touch most
	// lines again while they are in L2, 256 rows few (HighCard at two
	// workers: 27 vs 33 ms). Under a budget a router's blocks take a
	// sixteenth of it at most, down to aggMinBlockRows: the sliver of a
	// chunk a partition was handed before there were blocks.
	aggBlockRows    = vector.DefaultChunkSize
	aggMinBlockRows = vector.DefaultChunkSize / spillFanout
)

// ------------------------------------------------------- spilled rows

// aggLayout describes the spilled row formats of one aggregation,
// fixed by the plan: raw rows are [group cols..., arg cols (non-nil
// args only)..., pos]; partial rows are [group cols..., firstSeen,
// then per aggregate its state columns (aggShape.state)].
type aggLayout struct {
	spec    *plan.Aggregate
	shapes  []aggShape
	numKeys int
	raw     []vector.Type
	partial []vector.Type
}

func newAggLayout(spec *plan.Aggregate) *aggLayout {
	t := newAggTable(spec)
	l := &aggLayout{spec: spec, shapes: t.shapes, numKeys: len(t.gi.keys)}
	for _, k := range t.gi.keys {
		l.raw = append(l.raw, k.Type())
	}
	l.partial = append(slices.Clone(l.raw), vector.Int64)
	for _, sh := range l.shapes {
		if sh.spec.Arg != nil {
			l.raw = append(l.raw, sh.argType)
		}
		l.partial = append(l.partial, sh.state...)
	}
	l.raw = append(l.raw, vector.Int64)
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
	if err := checkSpilled(cols, l.partial, l.numKeys); err != nil {
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

// aggSpiller is an aggregation's spillFanout hash partitions at one
// recursion level, shared by every consumer that stopped
// pre-aggregating: their routers fold into the same partition tables
// under per-partition locks. Nothing of it touches disk until a budget
// is overflowed; then all its partitions share one spill file (file
// creation dominates spill cost on most filesystems) and per-partition
// chunk-ref lists keep them independently readable.
type aggSpiller struct {
	ctx    *Context
	layout *aggLayout
	level  int

	file spillFile

	// overflowed is set once the budget made a consumer hand its table
	// over or a partition go to disk: only then are the partitions
	// reported as spilled and resident (SpillStats, NodeStats).
	overflowed atomic.Bool

	// evictMu serializes eviction decisions: concurrent routers may
	// keep folding rows into partitions not being evicted, but only one
	// spillUntilFits pass picks victims at a time. Lock order is
	// evictMu → parts[p].mu → file.mu.
	evictMu sync.Mutex

	parts [spillFanout]aggSpillPart
}

func newAggSpiller(ctx *Context, layout *aggLayout, level int) *aggSpiller {
	return &aggSpiller{ctx: ctx, layout: layout, level: level,
		file: spillFile{ctx: ctx, label: fmt.Sprintf("agg-l%d", level)}}
}

// aggSpillPart is one partition: resident (rows and merged groups fold
// into table) until evicted, then spilled (they append to the raw and
// partial chunk lists). It never holds both a table and disk refs.
type aggSpillPart struct {
	mu           sync.Mutex
	table        *aggTable
	spilled      bool
	raw, partial spillBuf
}

// partitionRows groups row (or group) indexes by the partition their
// hash selects at this level.
func (s *aggSpiller) partitionRows(hashes []uint64) (sel [spillFanout][]int) {
	for r, h := range hashes {
		p := partitionOf(h, s.level)
		sel[p] = append(sel[p], r)
	}
	return sel
}

// resident returns the partition's in-memory table, nil once evicted.
func (pt *aggSpillPart) resident(spec *plan.Aggregate) *aggTable {
	if pt.spilled {
		return nil
	}
	if pt.table == nil {
		pt.table = newAggTable(spec)
	}
	return pt.table
}

// aggRouter is one consumer's way into the partitions: a block of
// evaluated rows per partition, allocated once at its capacity (buffers
// grown by append spend the scatter in growslice) and charged to the
// budget until close.
type aggRouter struct {
	s      *aggSpiller
	rows   int // a block's capacity
	blocks [spillFanout]aggBlock
	sel    [spillFanout][]int // per-chunk scratch
	src    []*vector.Vector
	bytes  int64
}

// aggBlock holds rows in raw-row layout beside their hashes; keys and
// args alias cols the way consumeVecs takes them.
type aggBlock struct {
	cols, keys, args []*vector.Vector
	hashes           []uint64
}

func (s *aggSpiller) newRouter() *aggRouter {
	r, l := &aggRouter{s: s, rows: aggBlockRows}, s.layout
	width := int64(8) // the hash
	for _, t := range l.raw {
		width += typeWidth(t)
	}
	if s.ctx.spillEnabled() { // all the blocks in a sixteenth of the budget
		r.rows = max(aggMinBlockRows, min(r.rows, int(s.ctx.mem.limit()/(16*spillFanout*width))))
	}
	for p := range r.blocks {
		b := &r.blocks[p]
		b.hashes = make([]uint64, 0, r.rows)
		for _, t := range l.raw {
			b.cols = append(b.cols, vector.New(t, r.rows))
		}
		b.keys, b.args = b.cols[:l.numKeys], l.rawArgs(b.cols)
	}
	r.bytes = width * int64(r.rows) * spillFanout
	s.ctx.memGrow(r.bytes)
	return r
}

// route scatters evaluated rows into the partitions' blocks, folding
// each block that fills. hashes are the key rows' hashKeyRows and pos
// each row's global input position. Under a budget it ends by
// re-checking the resident footprint and evicting if needed.
func (r *aggRouter) route(keys []*vector.Vector, hashes []uint64, args []*vector.Vector, pos []int64) error {
	r.src = append(r.src[:0], keys...)
	for _, a := range args {
		if a != nil {
			r.src = append(r.src, a)
		}
	}
	r.src = append(r.src, vector.FromInt64s(pos))
	for p := range r.sel {
		r.sel[p] = r.sel[p][:0]
	}
	level := r.s.level
	for row, h := range hashes {
		p := partitionOf(h, level)
		r.sel[p] = append(r.sel[p], row)
	}
	for p, rows := range r.sel {
		for b := &r.blocks[p]; len(rows) > 0; {
			take := rows[:min(len(rows), r.rows-len(b.hashes))]
			for c, v := range b.cols {
				v.AppendGather(r.src[c], take)
			}
			for _, row := range take {
				b.hashes = append(b.hashes, hashes[row])
			}
			if rows = rows[len(take):]; len(b.hashes) == r.rows {
				if err := r.flush(p); err != nil {
					return err
				}
			}
		}
	}
	return r.s.spillUntilFits()
}

// flush hands partition p's block to the partition: a resident one
// folds the rows into its table, an evicted one appends them to its raw
// chunk list. Safe for concurrent use by the routers of one spiller.
func (r *aggRouter) flush(p int) (err error) {
	b, pt, s := &r.blocks[p], &r.s.parts[p], r.s
	if len(b.hashes) == 0 {
		return nil
	}
	pt.mu.Lock()
	if t := pt.resident(s.layout.spec); t != nil {
		prev := t.size()
		err = t.consumeVecs(b.keys, b.hashes, b.args, b.cols[len(b.cols)-1].Int64s())
		s.ctx.memGrow(t.size() - prev)
	} else {
		err = s.file.write(&pt.raw, b.cols)
	}
	pt.mu.Unlock()
	for _, v := range b.cols {
		v.Reset()
	}
	b.hashes = b.hashes[:0]
	return err
}

// close returns the blocks to the budget. Idempotent, nil-safe.
func (r *aggRouter) close() {
	if r != nil {
		r.s.ctx.memShrink(r.bytes)
		r.bytes, r.blocks = 0, [spillFanout]aggBlock{}
	}
}

// absorb hands a batch of one partition's groups to the partition: a
// resident one merges it into its table, an evicted one buffers it as
// partial rows for disk. Under the partition's lock or, in finish, owner.
func (s *aggSpiller) absorb(pt *aggSpillPart, batch *aggPartial) error {
	if t := pt.resident(s.layout.spec); t != nil {
		prev := t.size()
		t.mergePartial(batch)
		s.ctx.memGrow(t.size() - prev)
		return nil
	}
	return s.file.write(&pt.partial, batch.chunk())
}

// absorbRows hands groups to their partitions: batch makes the batch of
// the groups sel, which are those of one partition by their hashes.
func (s *aggSpiller) absorbRows(hashes []uint64, batch func(sel []int) (*aggPartial, error)) error {
	for p, rows := range s.partitionRows(hashes) {
		if len(rows) == 0 {
			continue
		}
		b, err := batch(rows)
		if err != nil {
			return err
		}
		pt := &s.parts[p]
		pt.mu.Lock()
		err = s.absorb(pt, b)
		pt.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.spillUntilFits()
}

// dumpTable absorbs every group of t into the partitions and accounts
// the table's memory as released (the caller drops the table). Safe for
// concurrent use; ends by evicting as route does.
func (s *aggSpiller) dumpTable(t *aggTable) error {
	err := s.absorbRows(t.gi.hashes[:t.numGroups()], func(sel []int) (*aggPartial, error) { return t.partial(sel), nil })
	if err == nil {
		s.ctx.memShrink(t.size())
	}
	return err
}

// reroutePartialChunk forwards spilled partial rows to the next
// recursion level's partitions.
func (s *aggSpiller) reroutePartialChunk(cols []*vector.Vector) error {
	return s.absorbRows(hashKeyRows(cols[:s.layout.numKeys], cols[0].Len(), nil), func(sel []int) (*aggPartial, error) {
		return s.layout.readPartial(gatherVecs(cols, sel))
	})
}

// spillUntilFits evicts the largest resident partitions to disk until
// the resident footprint passes the budget check (which itself first
// tries to grow the governor lease), mirroring the hybrid join build.
// Ties go to the higher partition index so the choice is deterministic
// for a given set of sizes. It returns at once, no lock taken, while
// the query is within its budget or has none.
func (s *aggSpiller) spillUntilFits() error {
	if !s.ctx.overBudget() {
		return nil
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	for {
		var resident int64
		best, bestBytes := -1, int64(0)
		for p := range s.parts {
			pt := &s.parts[p]
			pt.mu.Lock()
			if pt.table != nil {
				b := pt.table.size()
				resident += b
				if b >= bestBytes {
					best, bestBytes = p, b
				}
			}
			pt.mu.Unlock()
		}
		if best < 0 || bestBytes == 0 || !s.ctx.shouldSpill(resident) {
			return nil
		}
		if err := s.evictPart(best); err != nil {
			return err
		}
	}
}

// evictPart writes one resident partition's groups as partial rows
// and marks the partition spilled; subsequent rows for it go to disk.
// No re-partitioning is needed: every group already belongs here.
func (s *aggSpiller) evictPart(p int) error {
	pt := &s.parts[p]
	pt.mu.Lock()
	defer pt.mu.Unlock()
	t := pt.table
	if t == nil {
		return nil
	}
	s.overflowed.Store(true)
	pt.table, pt.spilled = nil, true
	s.ctx.memShrink(t.size())
	return s.absorb(pt, t.partial(identitySel(t.numGroups())))
}

// finish turns every partition into firstSeen-sorted runs: the one way
// an aggregation's partitions end. Up to workers owners claim partitions
// off a cursor; an owner folds in what the routers' blocks and then the
// thread-local tables still hold for its partition, each in consumer
// order, flushes what is buffered for disk and, if the partition is
// resident, emits it: its groups are already merged by key. Evicted
// partitions then re-aggregate one at a time (a reloaded partition may
// need the whole budget) at recursion level nextLevel. A spiller that
// overflowed its budget reports how many partitions went to disk and
// how many it kept (SpillStats and, under EXPLAIN ANALYZE, the tap).
func (s *aggSpiller) finish(routers []*aggRouter, tables []*aggTable, workers, nextLevel int, out *aggOut) ([]*mergeRun, error) {
	sels := make([][spillFanout][]int, len(tables))
	for i, t := range tables {
		sels[i] = s.partitionRows(t.gi.hashes[:t.numGroups()])
	}
	runs := make([][]*mergeRun, spillFanout)
	err := parallelFor(workers, spillFanout, func(_, p int) error {
		pt := &s.parts[p]
		for _, r := range routers {
			if err := r.flush(p); err != nil {
				return err
			}
		}
		for i, t := range tables {
			if len(sels[i][p]) > 0 {
				if err := s.absorb(pt, t.partial(sels[i][p])); err != nil {
					return err
				}
			}
		}
		if err := errors.Join(s.file.flush(&pt.raw), s.file.flush(&pt.partial)); err != nil {
			return err
		}
		t := pt.table
		if t == nil || t.numGroups() == 0 {
			return nil
		}
		pt.table = nil
		mr, err := emitAggRun(s.ctx, t, out)
		runs[p] = []*mergeRun{mr}
		return err
	})
	var spilled, resident int64
	for p := range s.parts {
		if pt := &s.parts[p]; err == nil && len(pt.raw.refs)+len(pt.partial.refs) > 0 {
			spilled++
			runs[p], err = processAggPartition(s, pt, nextLevel, out)
		} else if runs[p] != nil {
			resident++
		}
	}
	if s.overflowed.Load() {
		s.ctx.spillStats().addPartitions(spilled)
		s.ctx.spillStats().addResident(resident)
		if tap := s.layout.spec.Hints.Tap; tap != nil {
			tap.SpillSpilled.Add(spilled)
			tap.SpillResident.Add(resident)
		}
	}
	s.abandon() // every partition is consumed, or never will be
	return slices.Concat(runs...), err
}

// abandon drops what the partitions still hold: their resident tables'
// charge goes back to the budget, and the file goes. A no-op after finish.
func (s *aggSpiller) abandon() {
	for p := range s.parts {
		if pt := &s.parts[p]; pt.table != nil {
			s.ctx.memShrink(pt.table.size())
			pt.table = nil
		}
	}
	s.file.release()
}

// ------------------------------------------------------- consumer

// aggShared is what the consumers of one table of an aggregation
// share: the partitions, created by the first to stop pre-aggregating
// (or at the merge), and whether the consumers are several — adaptive;
// one alone keeps its table however little it reduces.
type aggShared struct {
	mu       sync.Mutex
	spiller  *aggSpiller
	adaptive bool
}

// get returns the shared partitions, creating them on first use.
func (sh *aggShared) get(ctx *Context, spec *plan.Aggregate) *aggSpiller {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.spiller == nil {
		sh.spiller = newAggSpiller(ctx, newAggLayout(spec), 0)
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
	table  *aggTable  // nil once partitioned
	router *aggRouter // nil until then

	// rows counts the input; the sample window in progress began at row
	// winStart, when the table held winGroups groups.
	rows, winStart, winGroups int
}

func newAggConsumer(ctx *Context, spec *plan.Aggregate, shared *aggShared) *aggConsumer {
	return &aggConsumer{ctx: ctx, shared: shared, in: newAggInputs(spec), table: newAggTable(spec)}
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
		return c.router.route(in.keys, in.hashes, in.args, pos)
	}
	prev := t.size()
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
		sp.overflowed.Store(true)
	}
	if tap := c.in.spec.Hints.Tap; tap != nil {
		tap.PartitionedAt.CompareAndSwap(0, int64(c.rows))
	}
	c.router = sp.newRouter()
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
// that streams the result. A lone table no partition took from emits as
// it is: every serial query within its budget. Anything else meets in
// the shared partitions (aggSpiller.finish), whose runs the merger
// interleaves back into global first-appearance order.
func finishAggEmit(ctx *Context, spec *plan.Aggregate, consumers []*aggConsumer, shared *aggShared) (_ *runMerger, err error) {
	var tables []*aggTable
	var routers []*aggRouter
	for _, c := range consumers {
		if c.table != nil && c.table.numGroups() > 0 {
			tables = append(tables, c.table)
		}
		if c.router != nil {
			routers = append(routers, c.router)
		}
	}
	out := &aggOut{ctx: ctx}
	var runs []*mergeRun
	if shared.spiller == nil && len(tables) <= 1 {
		t := newAggTable(spec)
		if len(tables) == 1 {
			t = tables[0]
		}
		t.ensureGlobalGroup()
		var run *sortedRun
		run, err = t.emitRun(ctx)
		runs = []*mergeRun{newMemRun(run)}
	} else {
		sp := shared.get(ctx, spec)
		out.spill = sp.overflowed.Load()
		runs, err = sp.finish(routers, tables, len(consumers), 1, out)
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

// aggOut is where an aggregation's partition runs go: kept in memory
// (their bytes accounted into held, released when the merger closes)
// unless the aggregation overflowed its budget — spill — and the query
// is still over it; then written to one shared out-file, created on
// first need and owned by the merger, so merge-time memory stays
// bounded by O(partitions) windows. Partition owners share it.
type aggOut struct {
	ctx   *Context
	spill bool
	mu    sync.Mutex
	files []*spill.File // none, or the out-file
	held  int64
}

// keep takes one partition's run.
func (o *aggOut) keep(run *sortedRun) (*mergeRun, error) {
	if run.data.NumRows() == 0 {
		return newMemRun(run), nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.spill && o.ctx.overBudget() {
		if o.files == nil {
			f, err := o.ctx.spillManager().Create("agg-out")
			if err != nil {
				return nil, err
			}
			o.files = []*spill.File{f}
		}
		o.ctx.spillStats().addRuns(1)
		return spillSortedRun(o.files[0], run, nil)
	}
	b := runBytes(run)
	o.held += b
	o.ctx.memGrow(b)
	return newMemRun(run), nil
}

// emitAggRun emits a finished table as a run and releases its bytes.
func emitAggRun(ctx *Context, t *aggTable, out *aggOut) (*mergeRun, error) {
	run, err := t.emitRun(ctx)
	ctx.memShrink(t.size())
	if err != nil {
		return nil, err
	}
	return out.keep(run)
}

// processAggPartition re-aggregates one evicted partition: partial rows
// merge by key, raw rows replay, and an over-budget partition
// re-partitions at the next hash level. It returns the partition's
// groups as firstSeen-sorted runs (several after recursion).
func processAggPartition(sp *aggSpiller, src *aggSpillPart, level int, out *aggOut) ([]*mergeRun, error) {
	ctx, layout := sp.ctx, sp.layout
	t := newAggTable(layout.spec)
	var sub *aggSpiller
	var router *aggRouter
	defer func() {
		if t != nil {
			ctx.memShrink(t.size())
		}
		router.close()
		if sub != nil {
			sub.abandon()
		}
	}()

	// grown charges what the last chunk added to t and, once t is over
	// budget, hands it to a sub-spiller on the next hash nibble.
	grown := func(prev int64) error {
		ctx.memGrow(t.size() - prev)
		if level >= maxSpillLevels || !ctx.shouldSpill(t.size()) {
			return nil
		}
		sub = newAggSpiller(ctx, layout, level)
		sub.overflowed.Store(true)
		router = sub.newRouter()
		err := sub.dumpTable(t)
		if err == nil {
			t = nil
		}
		return err
	}

	// Partials first, then raw rows: every group a raw row touches
	// either already has its pre-spill partial merged in, or never had
	// one.
	for _, ref := range src.partial.refs {
		if ctx.interrupted() {
			return nil, ErrCancelled
		}
		cols, err := sp.file.read(ref, layout.partial, layout.numKeys)
		if err != nil {
			return nil, err
		}
		if sub != nil {
			err = sub.reroutePartialChunk(cols)
		} else if batch, rerr := layout.readPartial(cols); rerr != nil {
			err = rerr
		} else {
			prev := t.size()
			t.mergePartial(batch)
			err = grown(prev)
		}
		if err != nil {
			return nil, err
		}
	}
	var hashes []uint64
	for _, ref := range src.raw.refs {
		if ctx.interrupted() {
			return nil, ErrCancelled
		}
		cols, err := sp.file.read(ref, layout.raw, len(layout.raw)-1)
		if err != nil {
			return nil, err
		}
		keys, args, pos := cols[:layout.numKeys], layout.rawArgs(cols), cols[len(cols)-1].Int64s()
		hashes = hashKeyRows(keys, len(pos), hashes)
		if sub != nil {
			err = router.route(keys, hashes, args, pos)
		} else {
			prev := t.size()
			if err = t.consumeVecs(keys, hashes, args, pos); err == nil {
				err = grown(prev)
			}
		}
		if err != nil {
			return nil, err
		}
	}

	if sub == nil {
		mr, err := emitAggRun(ctx, t, out)
		t = nil
		return []*mergeRun{mr}, err
	}
	return sub.finish([]*aggRouter{router}, nil, 1, level+1, out)
}
