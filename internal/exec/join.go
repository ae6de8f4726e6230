package exec

import (
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
		lt, rt := l.Type(), spec.RightKeys[i].Type()
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
		v, err := plan.Evaluate(e, ch)
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

// joinCursor is one probe chunk's way through a joinTable: the one probe
// kernel, in memory and spilled. The joined rows, left columns then
// right, come in the three sections every join emits per probe chunk:
// the matched pairs that pass the residual, by (probe row, build row);
// then, for a LEFT join, the probe rows whose key matched no build row,
// NULL-padded; then those whose every match the residual rejected,
// NULL-padded. next returns at most vector.DefaultChunkSize of them,
// resuming at (probe row, match offset), and runs the residual over one
// candidate batch at a time.
type joinCursor struct {
	t        *joinTable
	spec     *plan.HashJoin
	in       joinInput
	ids      []int32 // per probe row, its key id; -1 when it has none or a NULL key
	state    []uint8 // per probe row: 0 no pair, 1 pairs, 2 a pair the residual kept
	row, off int     // the next pair: probe row row's off-th match
	pad      int     // the next padding candidate: row pad unmatched, then row pad-len(ids) rejected

	// The last chunk's rows: each one's probe row, the matched ones'
	// build rows (they come first), and how many padded ones are unmatched.
	probe, build []int
	unmatched    int
}

// cursor starts joining prepared probe rows against the table.
func (t *joinTable) cursor(spec *plan.HashJoin, in joinInput) *joinCursor {
	ids := t.gi.find(in.keys, in.hashes)
	pairs := 0
	for r, id := range ids {
		if in.null != nil && in.null[r] {
			ids[r] = -1
		} else if id >= 0 {
			pairs += int(t.start[id+1] - t.start[id])
		}
	}
	c := &joinCursor{t: t, spec: spec, in: in, ids: ids, state: make([]uint8, len(ids))}
	if spec.Kind == sql.LeftJoin {
		pairs += len(ids)
	} else {
		c.pad = 2 * len(ids)
	}
	size := min(pairs, vector.DefaultChunkSize)
	c.probe, c.build = make([]int, 0, size), make([]int, 0, size)
	return c
}

// next returns the cursor's next joined rows, nil once it has returned
// them all. Padded rows fill what room is left once every pair has been
// through the residual.
func (c *joinCursor) next() (*vector.Chunk, error) {
	c.probe, c.build, c.unmatched = c.probe[:0], c.build[:0], 0
	for n := len(c.ids); len(c.probe) == 0; {
		if c.row >= n && c.pad >= 2*n {
			return nil, nil
		}
		if err := c.match(); err != nil {
			return nil, err
		}
		for ; c.row >= n && c.pad < 2*n && len(c.probe) < vector.DefaultChunkSize; c.pad++ {
			if r := c.pad; r < n && c.state[r] == 0 {
				c.probe = append(c.probe, r)
				c.unmatched++
			} else if r >= n && c.spec.Extra != nil && c.state[r-n] == 1 {
				c.probe = append(c.probe, r-n)
			}
		}
	}
	cols := c.in.ch.Gather(c.probe).Cols()
	for _, col := range c.t.build.Gather(c.build).Cols() {
		if pads := len(c.probe) - len(c.build); pads > 0 {
			col.AppendVector(vector.Constant(vector.Null(), pads, col.Type()))
		}
		cols = append(cols, col)
	}
	return vector.NewChunk(cols...), nil
}

// match fills the chunk with up to a chunk's worth of the next pairs
// and keeps those that pass the residual.
func (c *joinCursor) match() error {
	t := c.t
	for c.row < len(c.ids) && len(c.probe) < vector.DefaultChunkSize {
		id := c.ids[c.row]
		if id < 0 {
			c.row++
			continue
		}
		ms := t.rows[int(t.start[id])+c.off : t.start[id+1]]
		take := min(len(ms), vector.DefaultChunkSize-len(c.probe))
		for _, m := range ms[:take] {
			c.probe = append(c.probe, c.row)
			c.build = append(c.build, int(m))
		}
		c.state[c.row] = max(c.state[c.row], 1)
		if c.off += take; take == len(ms) {
			c.row, c.off = c.row+1, 0
		}
	}
	if c.spec.Extra == nil || len(c.probe) == 0 {
		return nil
	}
	cand := vector.NewChunk(append(c.in.ch.Gather(c.probe).Cols(), t.build.Gather(c.build).Cols()...)...)
	pred, err := plan.Evaluate(c.spec.Extra, cand)
	if err != nil {
		return err
	}
	kept := 0
	for i, r := range c.probe {
		if !pred.IsNull(i) && pred.Bools()[i] {
			c.probe[kept], c.build[kept] = r, c.build[i]
			kept++
			c.state[r] = 2
		}
	}
	c.probe, c.build = c.probe[:kept], c.build[:kept]
	return nil
}

// ------------------------------------------------------- operator

// hashJoinOp implements inner and left outer equi-joins: the right
// input is materialized into a joinTable; left chunks probe it.
// Residual ON conjuncts are applied to joined rows.
//
// The probe side is a morsel pipeline — a table's or, under a join, an
// aggregate or a UNION, an operator's chunks — whose workers probe
// morsels concurrently, each through a joinCursor, and the ordered
// driver re-emits the output in morsel order, a bounded chunk at a time,
// so results match serial execution row for row.
type hashJoinOp struct {
	spec  *plan.HashJoin
	st    *nodeStats
	probe *pipeSpec // the left input
	build *pipeSpec // the right input, drained into a joinTable at Open

	drv *orderedDriver // the in-memory probe
	ctx *Context

	keyTypes []vector.Type
	table    *joinTable
	charged  int64 // what the build rows and the table hold of the budget

	// spill is non-nil once the build side grace-partitioned to disk
	// under the memory budget (join_spill.go); probing then runs
	// through the partitioned path and emission through the
	// order-restoring merger.
	spill       *joinSpill
	spillMerger *runMerger
}

func (j *hashJoinOp) Open(ctx *Context) error {
	j.ctx, j.spill, j.spillMerger = ctx, nil, nil
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
	if err := j.probe.open(ctx); err != nil {
		return err
	}
	// Probing only reads the table, so workers share it.
	j.drv = j.probe.ordered(ctx, j.probeMorsel)
	return nil
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
		j.spill = newJoinSpill(ctx, j.spec, j.keyTypes, j.st)
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
		if j.spillMerger, err = j.spill.probeAll(j.probe); err != nil {
			return nil, err
		}
	}
	ch, err := j.spillMerger.next(j.ctx)
	if err != nil || ch == nil {
		return nil, err
	}
	return vector.NewChunk(ch.Cols()[:j.spill.outCols]...), nil
}

func (j *hashJoinOp) Next() (*vector.Chunk, error) {
	if j.spill != nil {
		return j.spillNext()
	}
	return j.drv.next()
}

// probeMorsel joins one probe chunk, emitting the output a bounded chunk
// at a time.
func (j *hashJoinOp) probeMorsel(ch *vector.Chunk, emit func(*vector.Chunk) error) error {
	in, err := prepareJoin(j.spec.LeftKeys, j.keyTypes, ch, nil)
	if err != nil {
		return err
	}
	c := j.table.cursor(j.spec, in)
	for {
		out, err := c.next()
		if err != nil || out == nil {
			return err
		}
		if err := emit(out); err != nil {
			return err
		}
	}
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
