// Grace-partitioned spill for the hash join's build side. When the
// build relation outgrows the query's memory budget, the build drain
// switches to hybrid grace mode:
//
//  1. Build rows partition by the hash of their equi-key — the per-chunk
//     hashKeyRows every joinTable is built from. Partitions spill
//     largest-first (ties to the higher index) until the resident set,
//     tables included, fits; later build rows append to their
//     partition's resident buffer or spill file directly.
//  2. Probe rows re-partition by the same hash on the left keys. Rows
//     landing in a memory-resident partition probe its joinTable
//     immediately; rows of spilled partitions are deferred to
//     per-partition probe chunk lists. A spilled partition whose
//     build side still exceeds the budget when loaded re-partitions
//     recursively on the next hash nibble.
//  3. Because deferred output arrives partition-at-a-time — not in
//     probe order — every output row is tagged with the position the
//     in-memory join would have emitted it at: posKey packs
//     (probe chunk, output section, row) and buildSeq is the global
//     build row id. The whole output then flows through the shared
//     external-sort machinery keyed on (posKey, buildSeq), restoring
//     byte-identical in-memory emission order; that sort spills its
//     own runs under the same budget.
//
// The posKey section bits name the three sections of joinOut, which is
// the in-memory per-chunk emission layout: matched rows first (by probe
// row, then build row), then LEFT-join padded rows — unmatched-key rows
// before residual-rejected rows, each in probe-row order.
//
// The probe side stays morsel-parallel under spill when the plan
// probed in parallel: workers claim probe morsels and probe resident
// partitions concurrently, each tagging output through its own run
// builder (all runs merge in one order-restoring sort), and serialize
// only on routing deferred rows to spilled partitions. The sort makes
// worker scheduling an implementation detail, not a semantic one.
// Joins without equi-keys (cross products) and joins whose keys or
// residual contain UDFs never spill — they keep the in-memory path
// regardless of budget.
//
// The level-0 fan-out defaults to 16 partitions but widens (up to 256)
// when the planner estimated the build side large enough that one
// partitioning pass at 16 would still leave oversized partitions
// (plan.ExecHints.FanoutLog2); recursive re-partitioning then starts
// on the first hash nibble above the level-0 bits.
package exec

import (
	"slices"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// posKey section bits. Probe chunk rows are far below 2^30.
const (
	unmatchedBit = int64(1) << 31 // padded (LEFT join) section of a chunk
	residualBit  = int64(1) << 30 // padded because the residual rejected every match
)

// spillableJoin reports whether the join can grace-partition: it
// needs equi-keys for partitioning, and UDF-free keys/residual (spill
// re-evaluates keys over spilled rows, and the residual runs
// partition-at-a-time rather than chunk-at-a-time).
func spillableJoin(spec *plan.HashJoin) bool {
	if len(spec.LeftKeys) == 0 {
		return false
	}
	if exprsHaveUDF(spec.LeftKeys) || exprsHaveUDF(spec.RightKeys) {
		return false
	}
	return spec.Extra == nil || !exprsHaveUDF([]plan.Expr{spec.Extra})
}

// joinPart is one grace partition. Its build rows are [right columns...,
// seq] and its deferred probe rows [left columns..., posKey], in memory
// and on disk alike: a resident partition's build rows simply stay in
// their buffer, which spilling flushes.
type joinPart struct {
	spilled      bool
	build, probe spillBuf
	table        *joinTable // resident: over the build rows, once the drain completes
	bytes        int64      // resident: what the build rows and the table hold of the budget
}

// joinLevel is one partitioning pass: level 0 is the hybrid pass the
// build input drains into, a deeper one re-partitions, all to disk, one
// spilled partition of the level above.
type joinLevel struct {
	level int
	file  spillFile
	parts []joinPart
}

// joinSpill is the state of a grace-partitioned join.
type joinSpill struct {
	ctx      *Context
	spec     *plan.HashJoin
	keyTypes []vector.Type

	top        joinLevel
	fanoutBits uint             // level 0 has 1<<fanoutBits partitions
	nextSeq    int64            // global build row counter (input order)
	empty      *joinTable       // joins the probe rows that have no build row to meet
	layout     [2][]vector.Type // spilled build and probe rows; each set by the first chunk routed

	// mu guards the deferred-probe routing (partition buffers) and the
	// sorter list during the parallel probe; build and post-probe
	// phases are single-threaded.
	mu      sync.Mutex
	sorters []*runBuilder // one per probe worker; runs merge at finish
	outPos  atomic.Int64
	outCols int // joined output columns (before the 2 tag columns)
}

// probeState is one probe worker's private output: its own run builder
// (runs from all workers merge in finishEmit).
type probeState struct {
	sorter *runBuilder
}

// newProbeState registers a probe worker's private output builder.
func (js *joinSpill) newProbeState() *probeState {
	b := newRunBuilder(js.ctx, joinSortKeys(js.outCols), 0, "join-out")
	js.mu.Lock()
	js.sorters = append(js.sorters, b)
	js.mu.Unlock()
	return &probeState{sorter: b}
}

// joinSortKeys returns the tag sort keys over a joined chunk with
// nOut data columns.
func joinSortKeys(nOut int) []plan.SortKey {
	return []plan.SortKey{
		{Expr: &plan.ColRef{Idx: nOut, Typ: vector.Int64, Name: "__poskey"}},
		{Expr: &plan.ColRef{Idx: nOut + 1, Typ: vector.Int64, Name: "__buildseq"}},
	}
}

func newJoinSpill(ctx *Context, spec *plan.HashJoin, keyTypes []vector.Type) *joinSpill {
	js := &joinSpill{ctx: ctx, spec: spec, keyTypes: keyTypes, fanoutBits: 4}
	if h := spec.Hints.FanoutLog2; h > 4 {
		js.fanoutBits = uint(min(h, 8))
	}
	js.top = js.newLevel(0, 1<<js.fanoutBits)
	js.outCols = len(spec.Left.Schema()) + len(spec.Right.Schema())
	return js
}

func (js *joinSpill) newLevel(level, parts int) joinLevel {
	return joinLevel{level: level, file: spillFile{ctx: js.ctx, label: "join"}, parts: make([]joinPart, parts)}
}

// partition groups the rows of a prepared chunk by the partition their
// hash selects at lv — the low fanoutBits at level 0, one nibble above
// them per level below — leaving out the rows with a NULL key.
func (js *joinSpill) partition(lv *joinLevel, in joinInput) [][]int {
	sel := make([][]int, len(lv.parts))
	for r, h := range in.hashes {
		if in.null != nil && in.null[r] {
			continue
		}
		p := int(h & uint64(len(lv.parts)-1))
		if lv.level > 0 {
			p = partitionOf(h>>(js.fanoutBits-4), lv.level)
		}
		sel[p] = append(sel[p], r)
	}
	return sel
}

// setLayout records, or checks against the record, the column types of
// the spilled build (side 0) or probe (side 1) rows.
func (js *joinSpill) setLayout(side int, cols []*vector.Vector) error {
	if js.layout[side] == nil {
		for _, c := range cols {
			js.layout[side] = append(js.layout[side], c.Type())
		}
	}
	return checkSpilled(cols, js.layout[side], len(cols)-1)
}

// addBuildChunk tags one chunk of the build input with global sequence
// ids in input order and routes it into level 0, then spills until the
// resident partitions fit again.
func (js *joinSpill) addBuildChunk(ch *vector.Chunk) error {
	seq := make([]int64, ch.NumRows())
	for r := range seq {
		seq[r] = js.nextSeq + int64(r)
	}
	js.nextSeq += int64(len(seq))
	if err := js.addBuild(&js.top, append(slices.Clone(ch.Cols()), vector.FromInt64s(seq))); err != nil {
		return err
	}
	return js.spillUntilFits()
}

// addBuild routes build rows to lv's partitions. Rows with a NULL key
// are dropped: they can never match, and LEFT-join padding only ever
// references probe rows.
func (js *joinSpill) addBuild(lv *joinLevel, cols []*vector.Vector) error {
	if err := js.setLayout(0, cols); err != nil {
		return err
	}
	in, err := prepareJoin(js.spec.RightKeys, js.keyTypes, vector.NewChunk(cols[:len(cols)-1]...))
	if err != nil {
		return err
	}
	for p, rows := range js.partition(lv, in) {
		if len(rows) == 0 {
			continue
		}
		pt, part := &lv.parts[p], gatherVecs(cols, rows)
		if pt.spilled {
			if err := lv.file.write(&pt.build, part); err != nil {
				return err
			}
			continue
		}
		pt.build.add(part)
		b := chunkBytes(vector.NewChunk(part...))
		pt.bytes += b
		js.ctx.memGrow(b)
	}
	return nil
}

// spillUntilFits writes level 0's resident partitions to disk, largest
// first (ties to the higher index), until the resident build state fits
// the budget's share or everything is spilled.
func (js *joinSpill) spillUntilFits() error {
	for {
		resident, best := int64(0), -1
		for p := range js.top.parts {
			pt := &js.top.parts[p]
			resident += pt.bytes
			if pt.bytes > 0 && (best < 0 || pt.bytes >= js.top.parts[best].bytes) {
				best = p
			}
		}
		if best < 0 || !js.ctx.shouldSpill(resident) {
			return nil
		}
		pt := &js.top.parts[best]
		pt.spilled = true
		js.dropResident(pt)
		if err := js.top.file.flush(&pt.build); err != nil {
			return err
		}
		js.ctx.spillStats().addPartitions(1)
	}
}

// dropResident gives back what a partition holds of the budget.
func (js *joinSpill) dropResident(pt *joinPart) {
	js.ctx.memShrink(pt.bytes)
	pt.table, pt.bytes = nil, 0
}

// finishBuild builds the resident partitions' tables — which count
// against the budget like the rows, so partitions may spill once more —
// flushes the spilled partitions' buffers, and records the hybrid
// outcome (partitions on disk vs resident) for SpillStats and EXPLAIN
// ANALYZE.
func (js *joinSpill) finishBuild() (err error) {
	none := make([]*vector.Vector, len(js.layout[0])-1)
	for i, t := range js.layout[0][:len(none)] {
		none[i] = vector.New(t, 0)
	}
	if js.empty, err = js.newTable(none, nil); err != nil {
		return err
	}
	for p := range js.top.parts {
		pt := &js.top.parts[p]
		if pt.spilled {
			continue
		}
		if pt.table = js.empty; pt.bytes == 0 {
			continue
		}
		nb := len(pt.build.cols) - 1
		if pt.table, err = js.newTable(pt.build.cols[:nb], pt.build.cols[nb].Int64s()); err != nil {
			return err
		}
		pt.bytes += pt.table.size()
		js.ctx.memGrow(pt.table.size())
	}
	if err := js.spillUntilFits(); err != nil {
		return err
	}
	var spilled, resident int64
	for p := range js.top.parts {
		pt := &js.top.parts[p]
		if pt.spilled {
			spilled++
			if err := js.top.file.flush(&pt.build); err != nil {
				return err
			}
		} else if pt.bytes > 0 {
			resident++
		}
	}
	js.ctx.spillStats().addResident(resident)
	if tap := js.spec.Hints.Tap; tap != nil {
		tap.SpillSpilled.Add(spilled)
		tap.SpillResident.Add(resident)
	}
	return nil
}

func (js *joinSpill) newTable(build []*vector.Vector, seq []int64) (*joinTable, error) {
	return newJoinTable(js.spec, js.keyTypes, vector.NewChunk(build...), seq)
}

// probeChunk joins one probe chunk as far as memory allows: its rows
// probe resident partitions at once, wait on disk for spilled ones, and
// pad at once (LEFT joins) when their key is NULL. Safe for concurrent
// probe workers: resident state is read-only here and output goes
// through the worker's private state.
func (js *joinSpill) probeChunk(ch *vector.Chunk, chunkIdx int, ps *probeState) error {
	in, err := prepareJoin(js.spec.LeftKeys, js.keyTypes, ch)
	if err != nil {
		return err
	}
	tags := morselPos(nil, chunkIdx, ch.NumRows())
	if in.null != nil && js.spec.Kind == sql.LeftJoin {
		var nulls []int
		for r, null := range in.null {
			if null {
				nulls = append(nulls, r)
			}
		}
		if err := js.join(js.empty, in.gather(nulls), gatherBy(tags, nulls), ps); err != nil {
			return err
		}
	}
	return js.route(&js.top, in, tags, ps)
}

// route sends probe rows — tags holds each one's posKey — to lv's
// partitions: a resident partition joins them now, a spilled one keeps
// them, tag column last, for processPart.
func (js *joinSpill) route(lv *joinLevel, in joinInput, tags []int64, ps *probeState) error {
	for p, rows := range js.partition(lv, in) {
		if len(rows) == 0 {
			continue
		}
		pt, ptags := &lv.parts[p], gatherBy(tags, rows)
		if !pt.spilled {
			if err := js.join(pt.table, in.gather(rows), ptags, ps); err != nil {
				return err
			}
			continue
		}
		part := append(gatherVecs(in.ch.Cols(), rows), vector.FromInt64s(ptags))
		js.mu.Lock()
		err := js.setLayout(1, part)
		if err == nil {
			err = lv.file.write(&pt.probe, part)
		}
		js.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// join probes one table and appends the result, tagged, to the worker's
// order-restoring run builder: a matched row sorts by (its probe row's
// posKey, its build row's seq), a padded row after every matched row of
// its chunk, in its section. outPos only reserves distinct position
// ranges per builder chunk — the restoration sort keys on the tags, so
// reservation order across workers is irrelevant.
func (js *joinSpill) join(t *joinTable, in joinInput, tags []int64, ps *probeState) error {
	out, err := t.probe(js.spec, in)
	if err != nil || out.chunk.NumRows() == 0 {
		return err
	}
	n := out.chunk.NumRows()
	pos, seq := make([]int64, 0, n), make([]int64, n)
	for i, r := range out.probe {
		pos, seq[i] = append(pos, tags[r]), t.seq[out.build[i]]
	}
	for _, r := range out.unmatched {
		pos = append(pos, tags[r]|unmatchedBit)
	}
	for _, r := range out.rejected {
		pos = append(pos, tags[r]|unmatchedBit|residualBit)
	}
	cols := append(out.chunk.Cols(), vector.FromInt64s(pos), vector.FromInt64s(seq))
	return ps.sorter.add(vector.NewChunk(cols...), js.outPos.Add(int64(n))-int64(n))
}

// processSpilled joins every spilled partition of a level — its
// deferred probe rows against its build rows — and removes the level's
// file. Runs after all probe workers have joined (single-threaded); the
// resident partitions of level 0 have met every probe row by then.
func (js *joinSpill) processSpilled(lv *joinLevel, ps *probeState) error {
	defer lv.file.release()
	for p := range lv.parts {
		js.dropResident(&lv.parts[p])
	}
	for p := range lv.parts {
		pt := &lv.parts[p]
		if err := lv.file.flush(&pt.build); err != nil {
			return err
		}
		if err := lv.file.flush(&pt.probe); err != nil {
			return err
		}
		if len(pt.probe.refs) == 0 {
			continue // no probe rows: inner joins and LEFT pads both emit nothing
		}
		if err := js.processPart(lv, pt, ps); err != nil {
			return err
		}
	}
	return nil
}

// processPart joins one spilled partition, re-partitioning it on the
// next hash nibble when its build side still exceeds the budget.
func (js *joinSpill) processPart(lv *joinLevel, pt *joinPart, ps *probeState) error {
	var build spillBuf
	for _, ref := range pt.build.refs {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := lv.file.read(ref, js.layout[0], len(js.layout[0])-1)
		if err != nil {
			return err
		}
		build.add(cols)
	}
	held := int64(0)
	defer func() { js.ctx.memShrink(held) }()
	hold := func(n int64) {
		held += n
		js.ctx.memGrow(n)
	}
	hold(chunkBytes(vector.NewChunk(build.cols...)))

	sub := js.newLevel(lv.level+1, spillFanout)
	defer sub.file.release()
	t := js.empty
	if js.ctx.shouldSpill(held) && sub.level < maxSpillLevels {
		for p := range sub.parts {
			sub.parts[p].spilled = true
		}
		if err := js.addBuild(&sub, build.cols); err != nil {
			return err
		}
		for p := range sub.parts {
			if sub.parts[p].build.cols != nil || sub.parts[p].build.refs != nil {
				js.ctx.spillStats().addPartitions(1)
			}
		}
		hold(-held)
		t, build = nil, spillBuf{}
	} else if nb := len(build.cols) - 1; nb >= 0 {
		var err error
		if t, err = js.newTable(build.cols[:nb], build.cols[nb].Int64s()); err != nil {
			return err
		}
		hold(t.size())
	}
	for _, ref := range pt.probe.refs {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := lv.file.read(ref, js.layout[1], len(js.layout[1])-1)
		if err != nil {
			return err
		}
		np := len(cols) - 1
		in, err := prepareJoin(js.spec.LeftKeys, js.keyTypes, vector.NewChunk(cols[:np]...))
		if err != nil {
			return err
		}
		if t != nil {
			err = js.join(t, in, cols[np].Int64s(), ps)
		} else {
			err = js.route(&sub, in, cols[np].Int64s(), ps)
		}
		if err != nil {
			return err
		}
	}
	if t != nil {
		return nil
	}
	return js.processSpilled(&sub, ps)
}

// finishEmit closes the probe phase: every probe worker's runs merge
// into final output order. The caller strips the two tag columns.
func (js *joinSpill) finishEmit() (*runMerger, error) {
	return finishBuilders(js.ctx, -1, js.sorters)
}

// release gives back what the spill state still holds of the budget
// and of the disk (the manager sweeps anything missed at stream close).
func (js *joinSpill) release() {
	if js == nil {
		return
	}
	for p := range js.top.parts {
		js.dropResident(&js.top.parts[p])
	}
	js.top.file.release()
}
