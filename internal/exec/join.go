package exec

import (
	"fmt"
	"slices"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// ------------------------------------------------------- join keys

// joinKeyTypes returns, per ON key pair, the type both sides are
// compared in: their own when they share it, the wider numeric one
// otherwise (INTEGER with BIGINT as BIGINT, an integer with DOUBLE as
// DOUBLE), and Invalid for a pair no cast reconciles, which never
// matches.
func joinKeyTypes(spec *plan.HashJoin) []vector.Type {
	types := make([]vector.Type, len(spec.LeftKeys))
	for i, l := range spec.LeftKeys {
		lt, rt := inputType(l), inputType(spec.RightKeys[i])
		if t, ok := vector.CommonNumeric(lt, rt); ok {
			types[i] = t
		} else if lt == rt {
			types[i] = lt
		}
	}
	return types
}

// joinInput is one chunk of either join side prepared for a joinTable.
type joinInput struct {
	ch     *vector.Chunk
	keys   []*vector.Vector // the side's key expressions, each in its pair's type
	hashes []uint64         // hashKeyRows of keys
	null   []bool           // rows with a NULL key cell, which match nothing; nil without any
}

// prepareJoin evaluates one side's key expressions over a chunk, casts
// each to its pair's type and hashes the rows: the one place join keys
// are made, for build and probe, in memory and spilled, so that equal
// keys are equal vector cells with equal hashes whatever their sides'
// declared types. hashes, when not nil, are the rows' hashes kept from
// an earlier call.
func prepareJoin(exprs []plan.Expr, types []vector.Type, ch *vector.Chunk, hashes []uint64) (joinInput, error) {
	n := ch.NumRows()
	in := joinInput{ch: ch, keys: make([]*vector.Vector, len(exprs)), hashes: hashes}
	for i, e := range exprs {
		v, err := Evaluate(e, ch)
		if err != nil {
			return in, err
		}
		if types[i] == vector.Invalid {
			v = vector.Constant(vector.Null(), n, vector.Bool)
		} else if v, err = v.Cast(types[i]); err != nil {
			return in, err
		}
		in.keys[i] = v
		for r, null := range v.Nulls() {
			if null {
				if in.null == nil {
					in.null = make([]bool, n)
				}
				in.null[r] = true
			}
		}
	}
	if hashes == nil {
		in.hashes = hashKeyRows(in.keys, n, nil)
	}
	return in, nil
}

// gather is the input restricted to rows sel, none of which has a NULL
// key.
func (in joinInput) gather(sel []int) joinInput {
	return joinInput{ch: in.ch.Gather(sel), keys: gatherVecs(in.keys, sel), hashes: gatherBy(in.hashes, sel)}
}

// ------------------------------------------------------- join table

// joinTable is a hash join's build side: the build rows, a groupIndex
// over their distinct keys, and per key id the rows that carry it, in
// build order, as two CSR arrays. A join without key columns is the
// same table with one key, the empty one, that every row carries. The
// table is read-only once built; any number of workers probe it.
type joinTable struct {
	build *vector.Chunk
	seq   []int64 // each row's position in the whole build input; nil when build is all of it
	gi    *groupIndex
	start []int32 // key id's rows are rows[start[id]:start[id+1]]
	rows  []int32
}

func newJoinTable(spec *plan.HashJoin, types []vector.Type, build *vector.Chunk, seq []int64, hashes []uint64) (*joinTable, error) {
	in, err := prepareJoin(spec.RightKeys, types, build, hashes)
	if err != nil {
		return nil, err
	}
	keyTypes := make([]vector.Type, len(in.keys))
	for i, k := range in.keys {
		keyTypes[i] = k.Type()
	}
	// A row with a NULL key cell is indexed like any other: no probe
	// looks its key up.
	t := &joinTable{build: build, seq: seq, gi: newGroupIndex(keyTypes)}
	ids := t.gi.resolve(in.keys, in.hashes, nil)
	// Counting sort of the rows by key id. Counts land two slots up so
	// that, summed, start[id+1] is where id's rows begin; filling
	// advances it to where they end, which is where id+1's begin.
	t.start = make([]int32, t.gi.n+2)
	for _, id := range ids {
		t.start[id+2]++
	}
	for id := 2; id < len(t.start); id++ {
		t.start[id] += t.start[id-1]
	}
	t.rows = make([]int32, len(ids))
	for r, id := range ids {
		t.rows[t.start[id+1]] = int32(r)
		t.start[id+1]++
	}
	return t, nil
}

// size is what the table retains beyond its build rows: the index
// (slots, hashes and key copies at capacity) and the CSR arrays.
func (t *joinTable) size() int64 {
	return t.gi.bytes + 4*int64(cap(t.start)+cap(t.rows))
}

// joinOut is one probe's result. chunk holds the joined rows, left
// columns then right, in the three sections every join emits per probe
// chunk: the matched pairs that pass the residual, ordered by (probe
// row, build row); then, for a LEFT join, the probe rows whose key
// matched no build row, NULL-padded; then the probe rows whose every
// match the residual rejected, NULL-padded.
type joinOut struct {
	chunk               *vector.Chunk
	probe, build        []int // the matched section's pairs
	unmatched, rejected []int // the padded sections' probe rows
}

// probe joins prepared probe rows against the table: the one probe
// kernel, in memory and spilled.
func (t *joinTable) probe(spec *plan.HashJoin, in joinInput) (*joinOut, error) {
	ids := t.gi.find(in.keys, in.hashes)
	pairs := 0
	for r, id := range ids {
		if in.null != nil && in.null[r] {
			ids[r] = -1
		} else if id >= 0 {
			pairs += int(t.start[id+1] - t.start[id])
		}
	}
	out := &joinOut{probe: make([]int, 0, pairs), build: make([]int, 0, pairs)}
	// Per probe row: 0 no pair, 1 pairs, 2 a pair the residual kept.
	state := make([]uint8, len(ids))
	for r, id := range ids {
		if id < 0 {
			continue
		}
		for _, m := range t.rows[t.start[id]:t.start[id+1]] {
			out.probe = append(out.probe, r)
			out.build = append(out.build, int(m))
		}
		state[r] = 1
	}
	if spec.Extra != nil && pairs > 0 {
		cand := vector.NewChunk(append(in.ch.Gather(out.probe).Cols(), t.build.Gather(out.build).Cols()...)...)
		pred, err := Evaluate(spec.Extra, cand)
		if err != nil {
			return nil, err
		}
		if pred.Type() != vector.Bool {
			return nil, fmt.Errorf("exec: join condition must be boolean, got %s", pred.Type())
		}
		kept := 0
		for i, r := range out.probe {
			if !pred.IsNull(i) && pred.Bools()[i] {
				out.probe[kept], out.build[kept] = r, out.build[i]
				kept++
				state[r] = 2
			}
		}
		out.probe, out.build = out.probe[:kept], out.build[:kept]
	}
	left := out.probe
	if spec.Kind == sql.LeftJoin {
		for r, s := range state {
			if s == 0 {
				out.unmatched = append(out.unmatched, r)
			} else if s == 1 && spec.Extra != nil {
				out.rejected = append(out.rejected, r)
			}
		}
		if len(out.unmatched)+len(out.rejected) > 0 {
			left = slices.Concat(out.probe, out.unmatched, out.rejected)
		}
	}
	cols := in.ch.Gather(left).Cols()
	for _, c := range t.build.Gather(out.build).Cols() {
		if pads := len(left) - len(out.probe); pads > 0 {
			c.AppendVector(vector.Constant(vector.Null(), pads, c.Type()))
		}
		cols = append(cols, c)
	}
	out.chunk = vector.NewChunk(cols...)
	return out, nil
}

// ------------------------------------------------------- operator

// hashJoinOp implements inner and left outer equi-joins: the right
// input is materialized into a joinTable; left chunks probe it.
// Residual ON conjuncts are applied to joined rows.
//
// When the left input is a morsel-parallelizable pipeline (probe.pipe),
// workers probe left morsels concurrently, re-emitting join output in
// morsel order so results match serial execution row for row.
type hashJoinOp struct {
	spec  *plan.HashJoin
	probe chunkFeed // the left input
	build chunkFeed // the right input, drained into a joinTable at Open

	drv *orderedDriver // the parallel in-memory probe
	ctx *Context

	keyTypes []vector.Type
	table    *joinTable
	charged  int64 // what the build rows and the table hold of the budget
	done     bool

	// spill is non-nil once the build side grace-partitioned to disk
	// under the memory budget (join_spill.go); probing then runs
	// through the partitioned path and emission through the
	// order-restoring merger.
	spill       *joinSpill
	spillMerger *runMerger
}

func (j *hashJoinOp) Open(ctx *Context) error {
	j.done, j.ctx, j.spill, j.spillMerger = false, ctx, nil, nil
	j.keyTypes = joinKeyTypes(j.spec)
	if err := j.build.open(ctx); err != nil {
		return err
	}
	build, err := j.drainBuild(ctx)
	if err != nil {
		return err
	}
	if j.spill != nil {
		if err := j.spill.top.finishBuild(); err != nil {
			return err
		}
		// The spilled probe claims a pipelined probe side's morsels
		// itself (probeAll) instead of through the ordered driver.
		return j.probe.open(ctx)
	}
	if j.table, err = newJoinTable(j.spec, j.keyTypes, build, nil, nil); err != nil {
		return err
	}
	j.charge(j.table.size())
	if j.probe.pipe != nil { // probing only reads the table, so workers share it
		j.drv = j.probe.pipe.ordered(ctx, j.probe.workers, j.probeChunk)
	}
	return j.probe.open(ctx)
}

func (j *hashJoinOp) charge(n int64) {
	j.charged += n
	j.ctx.memGrow(n)
}

// drainBuild materializes the right input, charging the budget as it
// grows. The moment a join that can grace-partition exceeds the budget
// it switches to partitioned spill: j.spill takes the rows so far and
// every later one, and no chunk is returned.
func (j *hashJoinOp) drainBuild(ctx *Context) (*vector.Chunk, error) {
	spillable := spillableJoin(j.spec)
	var acc spillBuf
	err := j.build.forEach(ctx, 1, func(_, _ int, ch *vector.Chunk) error {
		if j.spill != nil {
			return j.spill.addBuildChunk(ch)
		}
		acc.add(ch.Cols())
		j.charge(chunkBytes(ch))
		if !spillable || !ctx.shouldSpill(j.charged) {
			return nil
		}
		j.charge(-j.charged) // the partitions charge the rows as they take them
		j.spill = newJoinSpill(ctx, j.spec, j.keyTypes)
		ch, acc = vector.NewChunk(acc.cols...), spillBuf{}
		return j.spill.addBuildChunk(ch)
	})
	if acc.cols == nil && j.spill == nil { // an empty build side still has the right schema's columns
		for _, c := range j.spec.Right.Schema() {
			acc.cols = append(acc.cols, vector.New(c.Type, 0))
		}
	}
	return vector.NewChunk(acc.cols...), err
}

// spillNext streams the spilled join's output: first drain the probe
// side through the partitions, then emit the order-restored merge,
// stripping the tag columns.
func (j *hashJoinOp) spillNext() (*vector.Chunk, error) {
	if j.spillMerger == nil {
		var err error
		if j.spillMerger, err = j.spill.probeAll(&j.probe); err != nil {
			return nil, err
		}
	}
	ch, err := j.spillMerger.next(j.ctx)
	if err != nil || ch == nil {
		j.done = true
		return nil, err
	}
	return vector.NewChunk(ch.Cols()[:j.spill.outCols]...), nil
}

func (j *hashJoinOp) Next() (*vector.Chunk, error) {
	if j.done {
		return nil, nil
	}
	if j.spill != nil {
		return j.spillNext()
	}
	if j.drv != nil {
		return j.drv.next()
	}
	ch, err := pull(j.ctx, j.probe.child, j.probeChunk)
	j.done = ch == nil
	return ch, err
}

// probeChunk joins one probe chunk, nil when none of its rows joins.
func (j *hashJoinOp) probeChunk(ch *vector.Chunk) (*vector.Chunk, error) {
	in, err := prepareJoin(j.spec.LeftKeys, j.keyTypes, ch, nil)
	if err != nil {
		return nil, err
	}
	out, err := j.table.probe(j.spec, in)
	if err != nil || out.chunk.NumRows() == 0 {
		return nil, err
	}
	return out.chunk, nil
}

func (j *hashJoinOp) Close() error {
	j.drv.abort()
	j.spill.release()
	j.spillMerger.close()
	j.charge(-j.charged)
	j.table = nil
	lerr := j.probe.close()
	rerr := j.build.close()
	if lerr != nil {
		return lerr
	}
	return rerr
}
