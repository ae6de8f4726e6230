// Grace-partitioned spill for hash aggregation, in hybrid spill mode
// (mirroring the hybrid join build). When a query runs under a memory
// budget and its aggregation state outgrows it, the consumer switches
// to out-of-core mode:
//
//  1. The in-memory table's groups are partitioned by a nibble of the
//     group-key hash the table already holds and merged into
//     per-partition resident tables; then only the largest partitions
//     are evicted to disk — their groups written as "partial" rows (key
//     columns, firstSeen position, and each aggregate's typed state
//     columns) — until the resident remainder fits the budget.
//  2. Every subsequent input row is routed by the same hash (computed
//     once per chunk, column-wise): rows whose partition is still
//     resident update its in-memory states directly (no disk I/O);
//     rows of an evicted partition append to its file as "raw" rows
//     (evaluated group and argument columns plus the row's global
//     input position) without touching a hash table at all. If
//     resident partitions outgrow the budget again, the largest are
//     evicted in turn.
//  3. On emit, resident partitions sort their groups by firstSeen and
//     become runs directly. Evicted partitions are processed one at a
//     time: partials merge by key, raw rows re-aggregate, and if a
//     partition itself outgrows the budget it re-partitions
//     recursively on the next hash nibble. The shared run merger folds
//     all runs back into exact global first-appearance order, because
//     firstSeen is the minimum input position over all of a group's
//     rows — an order-independent quantity.
//
// All partitions of one spiller share one physical spill file (file
// creation dominates spill cost on most filesystems); per-partition
// chunk-ref lists make the partitions independently readable via
// positioned reads.
//
// Rows of one group always hash to one partition chain, so grouping is
// exact; determinism of row order holds at any budget and worker
// count. The single caveat is the one parallel execution already
// carries: SUM/AVG over DOUBLE accumulate in whatever order rows are
// replayed, so float sums can differ in the last ulps from the
// in-memory run; integer sums, COUNT and MIN/MAX are exact, and so is
// every DISTINCT aggregate but a float SUM/AVG, whose fold order is
// fixed instead (agg.go, aggregation).
package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// spillFanout is the grace-partition fan-out per recursion level (one
// hash nibble).
const spillFanout = 16

// maxSpillLevels caps re-partitioning depth; a partition that still
// exceeds the budget at the deepest level (keys that defeat
// 16^maxSpillLevels-way splitting) is processed in memory — correctness
// over the budget, degraded gracefully.
const maxSpillLevels = 8

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

// ------------------------------------------------------- agg spiller

// aggSpiller fans aggregation overflow out to spillFanout partitions
// at one recursion level. One spiller (and one spill file) is shared
// by every consumer of an aggregation: parallel workers route into
// the same partitions under per-partition locks.
type aggSpiller struct {
	ctx    *Context
	layout *aggLayout
	level  int

	file spillFile

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
// hash selects at this level, so routing takes one lock per (chunk,
// partition) instead of one per row.
func (s *aggSpiller) partitionRows(hashes []uint64) [spillFanout][]int {
	var sel [spillFanout][]int
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

// routeVecs routes evaluated rows to their partitions: rows of a
// resident partition fold into its in-memory table directly, rows of
// an evicted partition append to its raw chunk list. hashes are the
// key rows' hashKeyRows and pos each row's global input position. Safe
// for concurrent use by multiple workers; finishes by re-checking the
// resident footprint against the budget and evicting if needed.
func (s *aggSpiller) routeVecs(keys []*vector.Vector, hashes []uint64, args []*vector.Vector, pos []int64) error {
	sel := s.partitionRows(hashes)
	for p, rows := range sel {
		if len(rows) == 0 {
			continue
		}
		pkeys, pargs := gatherVecs(keys, rows), gatherVecs(args, rows)
		ppos := gatherBy(pos, rows)
		pt := &s.parts[p]
		pt.mu.Lock()
		var err error
		if t := pt.resident(s.layout.spec); t != nil {
			prev := t.size()
			err = t.consumeVecs(pkeys, gatherBy(hashes, rows), pargs, ppos)
			s.ctx.memGrow(t.size() - prev)
		} else {
			cols := pkeys
			for _, a := range pargs {
				if a != nil {
					cols = append(cols, a)
				}
			}
			err = s.file.write(&pt.raw, append(cols, vector.FromInt64s(ppos)))
		}
		pt.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.spillUntilFits()
}

// absorb hands a batch of one partition's groups to the partition: a
// resident one merges it into its table, an evicted one buffers it as
// partial rows for disk. The partition's lock must be held.
func (s *aggSpiller) absorb(pt *aggSpillPart, batch *aggPartial) error {
	if t := pt.resident(s.layout.spec); t != nil {
		prev := t.size()
		t.mergePartial(batch)
		s.ctx.memGrow(t.size() - prev)
		return nil
	}
	return s.file.write(&pt.partial, batch.chunk())
}

// dumpTable absorbs every group of t into the spiller and accounts the
// table's memory as released (the caller drops the table). Safe for
// concurrent use; ends by evicting the largest resident partitions
// until the remainder fits the budget.
func (s *aggSpiller) dumpTable(t *aggTable) error {
	sel := s.partitionRows(t.gi.hashes[:t.numGroups()])
	for p, groups := range sel {
		if len(groups) == 0 {
			continue
		}
		batch := t.partial(groups)
		pt := &s.parts[p]
		pt.mu.Lock()
		err := s.absorb(pt, batch)
		pt.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.ctx.memShrink(t.size())
	return s.spillUntilFits()
}

// reroutePartialChunk forwards spilled partial rows to the next
// recursion level's partitions.
func (s *aggSpiller) reroutePartialChunk(cols []*vector.Vector) error {
	sel := s.partitionRows(hashKeyRows(cols[:s.layout.numKeys], cols[0].Len(), nil))
	for p, rows := range sel {
		if len(rows) == 0 {
			continue
		}
		batch, err := s.layout.readPartial(gatherVecs(cols, rows))
		if err != nil {
			return err
		}
		pt := &s.parts[p]
		pt.mu.Lock()
		err = s.absorb(pt, batch)
		pt.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return s.spillUntilFits()
}

// spillUntilFits evicts the largest resident partitions to disk until
// the spiller's resident footprint passes the budget check (which
// itself first tries to grow the governor lease), mirroring the hybrid
// join build. Ties go to the higher partition index so the choice is
// deterministic for a given set of sizes.
func (s *aggSpiller) spillUntilFits() error {
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
	pt.table, pt.spilled = nil, true
	s.ctx.memShrink(t.size())
	return s.absorb(pt, t.partial(identitySel(t.numGroups())))
}

// finish flushes all buffered rows and counts the partitions that went
// to disk vs the ones kept resident (surfaced through SpillStats and,
// under EXPLAIN ANALYZE, the operator's tap).
func (s *aggSpiller) finish() error {
	var spilled, resident int64
	for p := range s.parts {
		pt := &s.parts[p]
		if err := s.file.flush(&pt.raw); err != nil {
			return err
		}
		if err := s.file.flush(&pt.partial); err != nil {
			return err
		}
		if len(pt.raw.refs) > 0 || len(pt.partial.refs) > 0 {
			spilled++
		} else if pt.table != nil && pt.table.numGroups() > 0 {
			resident++
		}
	}
	s.ctx.spillStats().addPartitions(spilled)
	s.ctx.spillStats().addResident(resident)
	if tap := s.layout.spec.Hints.Tap; tap != nil {
		tap.SpillSpilled.Add(spilled)
		tap.SpillResident.Add(resident)
	}
	return nil
}

// abandon drops a spiller whose partitions will not all be processed
// (the query ended first): what its resident tables are charged goes
// back to the budget, and its file goes. A no-op after the partitions
// were processed.
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

// aggShared is the spill state shared by every consumer of one
// aggregation: the first consumer to overflow creates the spiller,
// and all consumers route into the same partition files afterwards.
type aggShared struct {
	mu      sync.Mutex
	spiller *aggSpiller
}

// get returns the shared spiller, creating it on first use.
func (sh *aggShared) get(ctx *Context, spec *plan.Aggregate) *aggSpiller {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.spiller == nil {
		sh.spiller = newAggSpiller(ctx, newAggLayout(spec), 0)
	}
	return sh.spiller
}

// aggConsumer is one consumption thread's aggregation state: an
// in-memory table that converts to grace-partitioned spill routing
// when the query's footprint exceeds its budget.
type aggConsumer struct {
	ctx     *Context
	shared  *aggShared
	in      *aggInputs
	pos     []int64
	table   *aggTable
	spiller *aggSpiller
}

func newAggConsumer(ctx *Context, spec *plan.Aggregate, shared *aggShared) *aggConsumer {
	return &aggConsumer{ctx: ctx, shared: shared, in: newAggInputs(spec), table: newAggTable(spec)}
}

// consume folds one chunk, switching to spill routing once over
// budget. morsel is the chunk's global input index.
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
		return c.spiller.routeVecs(in.keys, in.hashes, in.args, pos)
	}
	prev := t.size()
	if err := t.consumeVecs(in.keys, in.hashes, in.args, pos); err != nil {
		return err
	}
	c.ctx.memGrow(t.size() - prev)
	if c.ctx.shouldSpill(t.size()) {
		c.spiller = c.shared.get(c.ctx, in.spec)
		if err := c.spiller.dumpTable(t); err != nil {
			return err
		}
		c.table = nil
	}
	return nil
}

// ------------------------------------------------------- emit

// mergeRange is the slice of the hash space, out of parts equal ones,
// that hash h falls in. It slices the hash multiplied once more, not
// the hash: a merge worker indexes exactly the groups of its range, the
// index places a group by its hash's top bits (groupIndex.home), and a
// contiguous range of the hash itself would crowd that table into
// 1/parts of its slots — linear probing goes quadratic. The product's
// high word depends on every bit of the hash, so a range of it leaves
// the hash's own top bits (and the low nibbles spill partitioning
// consumes) spread over all their values.
func mergeRange(h uint64, parts int) int {
	return int((h * hashMul >> 32) * uint64(parts) >> 32)
}

// mergeTables turns the consumers' in-memory tables (in worker-index
// order) into firstSeen-sorted runs. One table emits as it is — every
// serial query. Several are merged partition-parallel: merge worker w
// owns the w-th slice of the hash space and folds, table by table in
// worker-index order, the groups whose hash falls in it into a table
// of its own, so no two workers ever touch one group, nothing depends
// on which worker finishes first, and a float SUM adds its per-worker
// partials in the same order at any degree of parallelism.
func mergeTables(ctx *Context, spec *plan.Aggregate, tables []*aggTable) ([]*mergeRun, error) {
	if len(tables) == 0 {
		t := newAggTable(spec)
		t.ensureGlobalGroup()
		tables = append(tables, t)
	}
	runs := make([]*mergeRun, len(tables))
	errs := make([]error, len(tables))
	emit := func(w int, t *aggTable) {
		run, err := t.emitRun(ctx)
		runs[w], errs[w] = newMemRun(run), err
	}
	if len(tables) == 1 {
		emit(0, tables[0])
	} else {
		var wg sync.WaitGroup
		for w := range tables {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				merged := newAggTable(spec)
				for _, t := range tables {
					sel := make([]int, 0, t.numGroups()/len(tables)*5/4)
					for id, h := range t.gi.hashes[:t.numGroups()] {
						if mergeRange(h, len(tables)) == w {
							sel = append(sel, id)
						}
					}
					merged.mergePartial(t.partial(sel))
				}
				emit(w, merged)
			}(w)
		}
		wg.Wait()
	}
	// The aggregation state dies here; only the emitted runs live on.
	for _, t := range tables {
		ctx.memShrink(t.size())
	}
	return runs, errors.Join(errs...)
}

// finishAggEmit turns the consumers' accumulated state into the merger
// that streams the result. With no spill anywhere the in-memory tables
// merge directly (mergeTables). Once any consumer spilled, the
// remaining in-memory tables are dumped into the shared spiller too,
// in consumer order, and every partition is processed to a
// firstSeen-sorted run; either way the runs merge back into global
// first-appearance order.
func finishAggEmit(ctx *Context, spec *plan.Aggregate, consumers []*aggConsumer, shared *aggShared) (*runMerger, error) {
	var tables []*aggTable
	for _, c := range consumers {
		if c.table != nil && c.table.numGroups() > 0 {
			tables = append(tables, c.table)
		}
	}
	sp := shared.spiller
	if sp == nil {
		runs, err := mergeTables(ctx, spec, tables)
		if err != nil {
			return nil, err
		}
		return newRunMerger(ctx, nil, runs, -1, nil, 0), nil
	}
	for _, t := range tables {
		if err := sp.dumpTable(t); err != nil {
			return nil, err
		}
	}
	if err := sp.finish(); err != nil {
		return nil, err
	}

	// Partition output runs that cannot stay in memory share one
	// "out" file, created on first need and owned by the merger.
	var outFile *spill.File
	getOut := func() (*spill.File, error) {
		if outFile == nil {
			f, err := ctx.spillManager().Create("agg-out")
			if err != nil {
				return nil, err
			}
			outFile = f
		}
		return outFile, nil
	}

	var held int64
	runs, err := spillerRuns(ctx, sp, 1, getOut, &held)
	if err != nil {
		ctx.memShrink(held)
		return nil, err
	}
	// Every partition is consumed; the spiller's file can go now. The
	// out-file lives until the merge drains.
	sp.file.release()
	var files []*spill.File
	if outFile != nil {
		files = append(files, outFile)
	}
	return newRunMerger(ctx, nil, runs, -1, files, held), nil
}

// spillerRuns turns every partition of sp into firstSeen-sorted runs:
// resident tables never touched disk — their groups are already merged
// by key and emit directly — while spilled partitions re-aggregate
// (and recurse) via processAggPartition. nextLevel is the recursion
// level for spilled partitions.
func spillerRuns(ctx *Context, sp *aggSpiller, nextLevel int, getOut func() (*spill.File, error), held *int64) ([]*mergeRun, error) {
	var runs []*mergeRun
	for p := 0; p < spillFanout; p++ {
		pt := &sp.parts[p]
		if t := pt.table; t != nil {
			pt.table = nil
			mr, err := emitAggRun(ctx, t, getOut, held)
			if err != nil {
				return nil, err
			}
			runs = append(runs, mr)
			continue
		}
		if len(pt.raw.refs) == 0 && len(pt.partial.refs) == 0 {
			continue
		}
		prs, err := processAggPartition(ctx, sp, pt, nextLevel, getOut, held)
		if err != nil {
			return nil, err
		}
		runs = append(runs, prs...)
	}
	return runs, nil
}

// processAggPartition re-aggregates one partition: partial rows merge
// by key, raw rows replay, and an over-budget partition re-partitions
// recursively at the next hash level. It returns the partition's
// groups as firstSeen-sorted runs (several after recursion), spilling
// each run that would not fit in memory to the shared out-file.
func processAggPartition(ctx *Context, sp *aggSpiller, src *aggSpillPart, level int, getOut func() (*spill.File, error), held *int64) ([]*mergeRun, error) {
	layout := sp.layout
	t := newAggTable(layout.spec)
	var sub *aggSpiller

	// grown charges what the last chunk added to t and, once t is over
	// budget, hands it to a sub-spiller on the next hash nibble.
	grown := func(prev int64) error {
		ctx.memGrow(t.size() - prev)
		if level >= maxSpillLevels || !ctx.shouldSpill(t.size()) {
			return nil
		}
		sub = newAggSpiller(ctx, layout, level)
		err := sub.dumpTable(t)
		t = nil
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
		if t == nil {
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
		keys, rest := cols[:layout.numKeys], cols[layout.numKeys:]
		args := make([]*vector.Vector, len(layout.shapes))
		for i := range layout.shapes {
			if layout.shapes[i].spec.Arg != nil {
				args[i], rest = rest[0], rest[1:]
			}
		}
		pos := rest[0].Int64s()
		hashes = hashKeyRows(keys, len(pos), hashes)
		if t == nil {
			err = sub.routeVecs(keys, hashes, args, pos)
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
		mr, err := emitAggRun(ctx, t, getOut, held)
		if err != nil {
			return nil, err
		}
		return []*mergeRun{mr}, nil
	}
	if err := sub.finish(); err != nil {
		return nil, err
	}
	runs, err := spillerRuns(ctx, sub, level+1, getOut, held)
	if err != nil {
		return nil, err
	}
	sub.file.release()
	return runs, nil
}

// emitAggRun emits a finished table as a run, releasing the table's
// bytes and keeping or spilling the run as maybeSpillAggRun decides.
func emitAggRun(ctx *Context, t *aggTable, getOut func() (*spill.File, error), held *int64) (*mergeRun, error) {
	run, err := t.emitRun(ctx)
	ctx.memShrink(t.size())
	if err != nil {
		return nil, err
	}
	return maybeSpillAggRun(ctx, run, getOut, held)
}

// maybeSpillAggRun keeps a partition's output run in memory when it
// fits (accounting its bytes into *held, released when the merger
// closes), writing it to the shared out-file when the query is
// (still) over budget so merge-time memory stays bounded by
// O(partitions) windows.
func maybeSpillAggRun(ctx *Context, run *sortedRun, getOut func() (*spill.File, error), held *int64) (*mergeRun, error) {
	if run.data.NumRows() == 0 {
		return newMemRun(run), nil
	}
	if ctx.spillEnabled() && ctx.overBudget() {
		f, err := getOut()
		if err != nil {
			return nil, err
		}
		mr, err := spillSortedRun(f, run, nil)
		if err != nil {
			return nil, err
		}
		ctx.spillStats().addRuns(1)
		return mr, nil
	}
	b := runBytes(run)
	*held += b
	ctx.memGrow(b)
	return newMemRun(run), nil
}
