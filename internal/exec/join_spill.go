// The spilled hash join. When the build relation outgrows the query's
// memory budget the build drain moves into passes of the grace engine
// (grace.go), which owns partitioning, eviction, reload and recursion.
// What is the join's:
//
//   - Layouts. Build rows are [right columns..., seq], seq the row's
//     position in the whole build input; probe rows [left columns...,
//     posKey]. Both are typed by the plan: the inputs' schemas, then
//     BIGINT. Only what is read back from disk is checked against them.
//   - Folds. A resident partition keeps its build rows, and the hashes
//     routed beside them, in a buffer that eviction writes out; when the
//     build input drains the buffer is indexed, from those hashes, as a
//     joinTable. Probe rows landing there probe that table; those of a
//     spilled partition wait on disk for joinSpilled.
//   - Order. Deferred output arrives partition-at-a-time, not in probe
//     order, so every output row is tagged with the position the
//     in-memory join would have emitted it at: posKey packs (probe chunk,
//     output section, row) and seq orders the matches of one probe row.
//     The whole output flows through the shared external-sort machinery
//     keyed on (posKey, seq), restoring byte-identical in-memory emission
//     order; that sort spills its own runs under the same budget.
//
// The posKey section bits name the three sections of a joinCursor's
// output, the in-memory per-chunk emission order: matched rows first (by
// probe row, then build row), then LEFT-join padded rows — unmatched-key
// rows before residual-rejected rows, each in probe-row order.
//
// Level 0 has 16 partitions, up to 256 when the planner estimated the
// build side large enough that one pass at 16 would still leave
// oversized partitions (plan.ExecHints.FanoutLog2).
package exec

import (
	"slices"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// The join's row streams in its passes of the grace engine.
const (
	buildRows = 0
	probeRows = 1
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

// joinPass is one partitioning pass of a spilled join: level 0 is the
// one the build and probe inputs drain into, a deeper one takes the rows
// of one spilled partition of the pass above.
type joinPass struct {
	js     *joinSpill
	g      *grace
	build  *graceRouter // the build phase's
	rows   []spillBuf   // per resident partition, its build rows,
	hashes [][]uint64   // their key hashes
	tables []*joinTable // and, once the build phase ends, the table over them
}

// joinSpill is the state of a grace-partitioned join.
type joinSpill struct {
	ctx      *Context
	spec     *plan.HashJoin
	keyTypes []vector.Type
	layout   graceLayout

	top     *joinPass
	nextSeq int64      // global build row counter (input order)
	empty   *joinTable // joins the probe rows that have no build row to meet

	states  []*probeState // one per probe worker that saw a chunk; their runs merge at finishEmit
	outPos  atomic.Int64
	outCols int // joined output columns (before the 2 tag columns)
}

// probeState is one probe worker's private state: its router into the
// top pass, made by its first chunk, and its own run builder.
type probeState struct {
	sorter *runBuilder
	router *graceRouter
}

// joinSortKeys returns the tag sort keys over a joined chunk with
// nOut data columns.
func joinSortKeys(nOut int) []plan.SortKey {
	return []plan.SortKey{
		{Expr: &plan.ColRef{Idx: nOut, Typ: vector.Int64, Name: "__poskey"}},
		{Expr: &plan.ColRef{Idx: nOut + 1, Typ: vector.Int64, Name: "__buildseq"}},
	}
}

func newJoinSpill(ctx *Context, spec *plan.HashJoin, keyTypes []vector.Type, st *nodeStats) *joinSpill {
	js := &joinSpill{ctx: ctx, spec: spec, keyTypes: keyTypes, layout: graceLayout{label: "join", st: st}}
	for stream, in := range [2]plan.Node{buildRows: spec.Right, probeRows: spec.Left} {
		js.layout.types[stream] = append(in.Schema().Types(), vector.Int64)
		js.layout.nullable[stream] = len(js.layout.types[stream]) - 1
	}
	js.top = js.newPass(newGrace(ctx, &js.layout, uint(min(max(spec.Hints.FanoutLog2, 4), 8)), 0))
	js.top.g.overflowed.Store(true)
	js.outCols = len(spec.Left.Schema()) + len(spec.Right.Schema())
	return js
}

func (js *joinSpill) newPass(g *grace) *joinPass {
	n := len(g.parts)
	jp := &joinPass{js: js, g: g, rows: make([]spillBuf, n), hashes: make([][]uint64, n), tables: make([]*joinTable, n)}
	g.evict = func(p int) []*vector.Vector {
		cols := jp.rows[p].cols
		jp.rows[p], jp.hashes[p], jp.tables[p] = spillBuf{}, nil, nil
		return cols
	}
	return jp
}

// addBuildChunk tags one chunk of the build input with global sequence
// ids in input order and routes it into level 0.
func (js *joinSpill) addBuildChunk(ch *vector.Chunk) (err error) {
	seq := make([]int64, ch.NumRows())
	for r := range seq {
		seq[r] = js.nextSeq + int64(r)
	}
	js.nextSeq += int64(len(seq))
	cols := append(slices.Clone(ch.Cols()), vector.FromInt64s(seq))
	if js.empty == nil {
		if js.empty, err = newJoinTable(js.spec, js.keyTypes, ch.Slice(0, 0), nil, nil); err != nil {
			return err
		}
	}
	return js.top.addBuild(cols)
}

// addBuild routes build rows into the pass, which evicts until the
// resident partitions fit again. Rows with a NULL key are dropped: they
// can never match, and LEFT-join padding only ever references probe rows.
func (jp *joinPass) addBuild(cols []*vector.Vector) error {
	in, err := prepareJoin(jp.js.spec.RightKeys, jp.js.keyTypes, vector.NewChunk(cols[:len(cols)-1]...), nil)
	if err != nil {
		return err
	}
	if jp.build == nil {
		jp.build = jp.g.newRouter(buildRows, func(p int, cols []*vector.Vector, hashes []uint64) (int64, error) {
			jp.rows[p].add(cols)
			jp.hashes[p] = append(jp.hashes[p], hashes...)
			return chunkBytes(vector.NewChunk(cols...)) + 8*int64(len(hashes)), nil
		})
	}
	return jp.build.route(cols, in.hashes, in.null)
}

// finishBuild ends a pass's build phase: the last blocks land, the
// resident partitions are indexed — their tables count against the
// budget like the rows, so partitions may spill once more — the pass is
// frozen, and the hybrid outcome (partitions on disk vs resident) goes to
// the node's record.
func (jp *joinPass) finishBuild() (err error) {
	g := jp.g
	if err := jp.build.finish(); err != nil {
		return err
	}
	for p := range g.parts {
		cols := jp.rows[p].cols
		if nb := len(cols) - 1; nb >= 0 { // indexed from the hashes kept beside the rows
			jp.tables[p], err = newJoinTable(jp.js.spec, jp.js.keyTypes, vector.NewChunk(cols[:nb]...), cols[nb].Int64s(), jp.hashes[p])
			if err != nil {
				return err
			}
			g.charge(&g.parts[p], jp.tables[p].size()-8*int64(len(jp.hashes[p])))
			jp.hashes[p] = nil // the table keeps one per key
		}
	}
	if err := g.spillUntilFits(); err != nil {
		return err
	}
	g.frozen = true
	var spilled, resident int64
	for p := range g.parts {
		if pt := &g.parts[p]; pt.spilled {
			spilled++
			if err := g.flushStreams(p); err != nil {
				return err
			}
		} else if pt.bytes > 0 {
			resident++
		}
	}
	g.report(spilled, resident)
	return nil
}

// probeChunk tags one chunk of the probe input with its rows' posKeys
// and routes it into level 0 through the worker's router. Safe for
// concurrent probe workers: resident state is read-only here and output
// goes through the worker's private state.
func (js *joinSpill) probeChunk(ch *vector.Chunk, chunkIdx int, ps *probeState) error {
	cols := append(slices.Clone(ch.Cols()), vector.FromInt64s(morselPos(nil, chunkIdx, ch.NumRows())))
	if ps.router == nil {
		ps.router = js.top.prober(ps)
	}
	return js.top.addProbe(ps.router, ps, cols)
}

// prober returns a router of probe rows into the pass whose fold joins
// them, from the hashes kept beside them, with the resident partition's
// table into ps.
func (jp *joinPass) prober(ps *probeState) *graceRouter {
	return jp.g.newRouter(probeRows, func(p int, cols []*vector.Vector, hashes []uint64) (int64, error) {
		t := jp.tables[p]
		if t == nil {
			t = jp.js.empty
		}
		return 0, jp.js.probe(t, cols, hashes, ps)
	})
}

// probe joins probe rows — hashes their keys' hashKeyRows when the caller
// kept them — with one table.
func (js *joinSpill) probe(t *joinTable, cols []*vector.Vector, hashes []uint64, ps *probeState) error {
	np := len(cols) - 1
	in, err := prepareJoin(js.spec.LeftKeys, js.keyTypes, vector.NewChunk(cols[:np]...), hashes)
	if err != nil {
		return err
	}
	return js.join(t, in, cols[np].Int64s(), ps)
}

// addProbe joins probe rows as far as memory allows: they probe resident
// partitions as r's blocks fill, wait on disk for spilled ones, and pad at
// once (LEFT joins) when their key is NULL.
func (jp *joinPass) addProbe(r *graceRouter, ps *probeState, cols []*vector.Vector) error {
	js, np := jp.js, len(cols)-1
	in, err := prepareJoin(js.spec.LeftKeys, js.keyTypes, vector.NewChunk(cols[:np]...), nil)
	if err != nil {
		return err
	}
	if in.null != nil && js.spec.Kind == sql.LeftJoin {
		var nulls []int
		for r, null := range in.null {
			if null {
				nulls = append(nulls, r)
			}
		}
		if err := js.join(js.empty, in.gather(nulls), gatherBy(cols[np].Int64s(), nulls), ps); err != nil {
			return err
		}
	}
	return r.route(cols, in.hashes, in.null)
}

// join probes one table and appends the result, tagged, to the worker's
// order-restoring run builder, a bounded chunk at a time: a matched row
// sorts by (its probe row's posKey, its build row's seq), a padded row
// after every matched row of its chunk, in its section. outPos only
// reserves distinct position ranges per builder chunk — the restoration
// sort keys on the tags, so reservation order across workers is
// irrelevant.
func (js *joinSpill) join(t *joinTable, in joinInput, tags []int64, ps *probeState) error {
	c := t.cursor(js.spec, in)
	for {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		out, err := c.next()
		if err != nil || out == nil {
			return err
		}
		n := out.NumRows()
		pos, seq := make([]int64, n), make([]int64, n)
		for i, r := range c.probe {
			switch {
			case i < len(c.build):
				pos[i], seq[i] = tags[r], t.seq[c.build[i]]
			case i < len(c.build)+c.unmatched:
				pos[i] = tags[r] | unmatchedBit
			default:
				pos[i] = tags[r] | unmatchedBit | residualBit
			}
		}
		cols := append(out.Cols(), vector.FromInt64s(pos), vector.FromInt64s(seq))
		if err := ps.sorter.add(vector.NewChunk(cols...), js.outPos.Add(int64(n))-int64(n)); err != nil {
			return err
		}
	}
}

// finishProbe ends a pass's probe phase — the routers' last blocks join
// or go to disk, the resident partitions have then met every probe row
// and are dropped — and joins every spilled partition that has probe
// rows (without any, inner joins and LEFT pads both emit nothing) into
// ps. Single-threaded.
func (jp *joinPass) finishProbe(routers []*graceRouter, ps *probeState) error {
	g := jp.g
	defer g.abandon()
	for _, r := range routers {
		if err := r.finish(); err != nil {
			return err
		}
	}
	for p := range g.parts { // the resident partitions have met every probe row
		g.evict(p)
		g.release(p)
	}
	for p := range g.parts {
		if err := g.flushStreams(p); err != nil {
			return err
		}
		if len(g.parts[p].streams[probeRows].refs) > 0 {
			if err := jp.js.joinSpilled(jp, p, ps); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeAll drains the probe input through level 0, joins level 0's
// spilled partitions (into the first worker's state) and returns the
// merger of every worker's runs, which restores final output order and
// owns the runs from here on; the caller strips the two tag columns. A
// pipelined probe side keeps its morsel parallelism — workers claim
// morsels and probe concurrently, each with a state of its own; the
// order-restoring sort hides the scheduling.
func (js *joinSpill) probeAll(in *pipeSpec) (*runMerger, error) {
	js.states = make([]*probeState, max(in.workers, 1))
	err := in.forEach(js.ctx, in.workers, func(w, i int, ch *vector.Chunk) error {
		if js.states[w] == nil {
			js.states[w] = &probeState{sorter: newRunBuilder(js.ctx, joinSortKeys(js.outCols), 0, "join-out", js.layout.st)}
		}
		return js.probeChunk(ch, i, js.states[w])
	})
	js.states = slices.DeleteFunc(js.states, func(ps *probeState) bool { return ps == nil })
	routers, sorters := make([]*graceRouter, len(js.states)), make([]*runBuilder, len(js.states))
	for i, ps := range js.states {
		routers[i], sorters[i] = ps.router, ps.sorter
	}
	if err == nil && len(js.states) > 0 {
		err = js.top.finishProbe(routers, js.states[0])
	}
	if err != nil {
		return nil, err
	}
	js.states = nil
	return finishBuilders(js.ctx, -1, sorters)
}

// joinSpilled joins spilled partition p of pass up: its build rows are
// reloaded into one table or, from the chunk on at which they stop
// fitting, into a pass of their own on the next hash nibble; its deferred
// probe rows follow them.
func (js *joinSpill) joinSpilled(up *joinPass, p int, ps *probeState) error {
	sub := js.newPass(up.g.sub())
	var whole spillBuf // the build rows, while they fit
	var router *graceRouter
	held := int64(0)
	hold := func(n int64) {
		held += n
		js.ctx.memGrow(n)
	}
	defer func() {
		hold(-held)
		sub.build.close()
		router.close()
		sub.g.abandon()
	}()
	err := up.g.reload(p, buildRows, func(cols []*vector.Vector) error {
		if sub.build == nil {
			whole.add(cols)
			hold(chunkBytes(vector.NewChunk(cols...)))
			if !js.ctx.shouldSpill(held) {
				return nil
			}
			hold(-held) // the pass charges the rows as it takes them
			cols, whole = whole.cols, spillBuf{}
		}
		return sub.addBuild(cols)
	})
	if err != nil {
		return err
	}
	if sub.build == nil {
		nb := len(whole.cols) - 1 // not -1: a partition is evicted for its build rows
		t, err := newJoinTable(js.spec, js.keyTypes, vector.NewChunk(whole.cols[:nb]...), whole.cols[nb].Int64s(), nil)
		if err != nil {
			return err
		}
		hold(t.size())
		return up.g.reload(p, probeRows, func(cols []*vector.Vector) error { return js.probe(t, cols, nil, ps) })
	}
	if err := sub.finishBuild(); err != nil {
		return err
	}
	router = sub.prober(ps)
	err = up.g.reload(p, probeRows, func(cols []*vector.Vector) error { return sub.addProbe(router, ps, cols) })
	if err != nil {
		return err
	}
	return sub.finishProbe([]*graceRouter{router}, ps)
}

// release gives back what the spill state still holds of the budget and
// of the disk when the join ends, finished or not (the manager sweeps
// anything missed at stream close).
func (js *joinSpill) release() {
	if js == nil {
		return
	}
	for _, ps := range js.states {
		ps.router.close()
		releaseBuilders([]*runBuilder{ps.sorter})
	}
	js.states = nil
	js.top.build.close()
	js.top.g.abandon()
}
