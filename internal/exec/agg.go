package exec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// aggOp implements hash aggregation with optional grouping. With no
// GROUP BY it produces exactly one row (even for empty input, per SQL
// semantics). Its input is consumed serially into one table or, by the
// workers of a morsel pipeline, each into tables of its own until those
// stop paying (agg_spill.go); the emitter streams the groups by first
// appearance.
type aggOp struct {
	spec    *plan.Aggregate
	st      *nodeStats
	in      *pipeSpec
	ctx     *Context
	started bool
	emitter aggEmitter
}

// aggShape is the static description of one aggregate's state: the
// typed state columns its kind needs, listed in state. A table never
// holds a DISTINCT aggregate — aggregation dedups the argument first
// and hands a table the plain form.
//
//	COUNT     [count BIGINT]
//	SUM, AVG  [count BIGINT, sum BIGINT or DOUBLE]
//	MIN, MAX  [set BOOLEAN, extremum of the argument's type]
type aggShape struct {
	spec    plan.AggSpec
	argType vector.Type // Invalid for COUNT(*)
	state   []vector.Type
}

func newAggShape(s plan.AggSpec) aggShape {
	sh := aggShape{spec: s}
	if s.Arg != nil {
		sh.argType = s.Arg.Type()
	}
	switch {
	case s.Kind == plan.AggCount:
		sh.state = []vector.Type{vector.Int64}
	case s.Kind == plan.AggAvg, s.Kind == plan.AggSum && (s.Typ == vector.Float64 || sh.argType == vector.Float64):
		sh.state = []vector.Type{vector.Int64, vector.Float64}
	case s.Kind == plan.AggSum:
		sh.state = []vector.Type{vector.Int64, vector.Int64}
	case sh.argType == vector.Bool: // MIN/MAX order booleans as 0 < 1
		sh.state = []vector.Type{vector.Bool, vector.Int32}
	default:
		sh.state = []vector.Type{vector.Bool, sh.argType}
	}
	return sh
}

// isExtremum reports whether the shape is a MIN or MAX.
func (sh *aggShape) isExtremum() bool { return len(sh.state) == 2 && sh.state[0] == vector.Bool }

// typeWidth is what one cell of a group-indexed array of type t is
// charged to the memory budget; string and blob payloads are charged
// on top as they arrive.
func typeWidth(t vector.Type) int64 {
	switch t {
	case vector.Bool:
		return 1
	case vector.Int32:
		return 4
	case vector.String:
		return 16
	case vector.Blob:
		return 24
	}
	return 8
}

// growVector returns the NULL-free state column v extended to n rows
// with zero values. State columns are kept at full length so that the
// typed loops index them directly and what they are charged is what
// they hold.
func growVector(v *vector.Vector, n int) *vector.Vector {
	switch v.Type() {
	case vector.Bool:
		return vector.FromBools(growTo(v.Bools(), n))
	case vector.Int32:
		return vector.FromInt32s(growTo(v.Int32s(), n))
	case vector.Int64:
		return vector.FromInt64s(growTo(v.Int64s(), n))
	case vector.Float64:
		return vector.FromFloat64s(growTo(v.Float64s(), n))
	case vector.String:
		return vector.FromStrings(growTo(v.Strings(), n))
	}
	return vector.FromBlobs(growTo(v.Blobs(), n))
}

// less is the engine's total order: NaN sorts after every number and
// equal to itself (vector.Value.Compare).
func less[T int32 | int64 | float64 | string](a, b T) bool { return a < b || (b != b && a == a) }

// addInto adds xs to the sums and counts the rows added, skipping
// NULLs: row r goes to group ids[r].
func addInto[S int64 | float64, X int32 | int64 | float64](count []int64, sum []S, ids []int32, xs []X, nulls []bool) {
	for r, id := range ids {
		if nulls == nil || !nulls[r] {
			count[id]++
			sum[id] += S(xs[r])
		}
	}
}

func addAll[T int64 | float64](dst []T, ids []int32, src []T) {
	for j, id := range ids {
		dst[id] += src[j]
	}
}

// extreme folds xs into the groups' extrema, skipping rows marked in
// skip; an equal value keeps the one already held. It returns the
// bytes by which retained string payloads grew.
func extreme[T int32 | int64 | float64 | string](set []bool, ext []T, ids []int32, xs []T, skip []bool, max bool) (grown int64) {
	news, _ := any(xs).([]string) // nil unless T is string
	olds, _ := any(ext).([]string)
	for r, id := range ids {
		if skip != nil && skip[r] {
			continue
		}
		if x, cur := xs[r], ext[id]; !set[id] || (max && less(cur, x)) || (!max && less(x, cur)) {
			if news != nil {
				grown += int64(len(news[r]) - len(olds[id]))
			}
			set[id], ext[id] = true, x
		}
	}
	return grown
}

// aggTable accumulates aggregation state column-wise: firstSeen and
// every aggregate's state columns are indexed by a group id. A hash
// table's groupIndex resolves key rows to ids (and holds the key
// columns); a dense table's ids are slots of its domain (dense.go),
// which the scan computes, and its arrays are allocated whole at
// creation. firstSeen orders the output: it is the smallest global
// input position (morsel, row) over a group's rows, so parallel
// partitions merge back into the exact order serial execution would
// produce.
type aggTable struct {
	spec       *plan.Aggregate
	st         *nodeStats // the node's record: groups inserted and emitted
	shapes     []aggShape
	gi         *groupIndex        // nil for a dense table
	dom        *groupDomain       // nil for a hash table
	firstSeen  []int64            // gi.capacity() or dom.slots long, as is everything below
	state      [][]*vector.Vector // per aggregate, typed by aggShape.state
	stateBytes int64              // firstSeen and state columns, string payloads

	ids     []int32 // per-chunk group ids
	counted int     // groups already counted into st
	// A dense table's slots in the order its consumer's rows first
	// touched them, in pieces, one a chunk, and the last input position
	// it consumed.
	touch   []int32
	pieces  []touchPiece
	lastPos int64
}

// touchPiece is the slots one chunk touched first (a stretch of
// aggTable.touch) and the position of the chunk's first row.
type touchPiece struct {
	at    int64
	slots []int32
}

func newAggTable(spec *plan.Aggregate, st *nodeStats) *aggTable {
	types := make([]vector.Type, len(spec.GroupBy))
	for i, g := range spec.GroupBy {
		types[i] = g.Type()
	}
	t := &aggTable{spec: spec, st: st, shapes: newAggShapes(spec), gi: newGroupIndex(types),
		state: make([][]*vector.Vector, len(spec.Aggs))}
	for i, sh := range t.shapes {
		for _, typ := range sh.state {
			t.state[i] = append(t.state[i], vector.New(typ, 0))
		}
	}
	return t
}

func newAggShapes(spec *plan.Aggregate) []aggShape {
	shapes := make([]aggShape, len(spec.Aggs))
	for i, s := range spec.Aggs {
		shapes[i] = newAggShape(s)
	}
	return shapes
}

// newDenseTable returns a table whose group ids are the slots of dom,
// every array allocated for all of them: denseWidth bytes a slot.
func newDenseTable(spec *plan.Aggregate, st *nodeStats, dom *groupDomain) *aggTable {
	t := newAggTable(spec, st)
	t.gi, t.dom = nil, dom
	t.grow(dom.slots)
	t.touch, t.lastPos = make([]int32, 0, dom.slots), -1
	t.stateBytes += 4 * int64(dom.slots)
	return t
}

// denseWidth is what one slot of a dense table takes: its firstSeen and
// state cells, and its place in the touch order.
func denseWidth(shapes []aggShape) int64 { return slotWidth(shapes) + 4 }

// numGroups is the number of group ids the table holds: the groups a
// hash table created, every slot of a dense one.
func (t *aggTable) numGroups() int {
	if t.dom != nil {
		return t.dom.slots
	}
	return t.gi.n
}

// size is the table's retained footprint as charged to the query's
// memory budget: the capacity of every key, hash-table and state
// array, plus string payloads.
func (t *aggTable) size() int64 {
	if t.gi == nil {
		return t.stateBytes
	}
	return t.gi.bytes + t.stateBytes
}

// slotWidth is what one group id's firstSeen and state cells take.
func slotWidth(shapes []aggShape) int64 {
	w := int64(8)
	for _, sh := range shapes {
		for _, typ := range sh.state {
			w += typeWidth(typ)
		}
	}
	return w
}

// growStates extends the state columns to the index's group capacity
// after groups were created.
func (t *aggTable) growStates() {
	t.st.groupsInserted.Add(int64(t.gi.n - t.counted))
	t.counted = t.gi.n
	t.grow(t.gi.capacity())
}

// grow extends firstSeen and the state columns to size group ids.
func (t *aggTable) grow(size int) {
	old := len(t.firstSeen)
	if old == size {
		return
	}
	t.firstSeen = growTo(t.firstSeen, size)
	for i := old; i < size; i++ {
		t.firstSeen[i] = math.MaxInt64
	}
	for i := range t.shapes {
		for c, v := range t.state[i] {
			t.state[i][c] = growVector(v, size)
		}
	}
	t.stateBytes += slotWidth(t.shapes) * int64(size-old)
}

// noteFirstSeen folds each row's position into its group's firstSeen
// (row r is in group ids[r]). The minimum is order-independent, so
// replayed and merged state may arrive in any order.
func (t *aggTable) noteFirstSeen(ids []int32, pos []int64) {
	fs := t.firstSeen
	for r, id := range ids {
		if pos[r] < fs[id] {
			fs[id] = pos[r]
		}
	}
}

// touchSlots is noteFirstSeen for a dense table's consumer, whose
// positions ascend across its chunks (its worker claims morsels in
// order): a slot's first row is then its first seen, so only a slot's
// first touch writes it, and appends the slot to touch — the chunk's
// piece. It counts the slots it touches first as the groups the table
// inserted.
func (t *aggTable) touchSlots(pos []int64) error {
	if pos[0] <= t.lastPos {
		return errors.New("exec: internal error: a dense table's input positions must ascend")
	}
	t.lastPos = pos[len(pos)-1]
	fs, n := t.firstSeen, len(t.touch)
	for r, id := range t.ids {
		if fs[id] == math.MaxInt64 {
			fs[id] = pos[r]
			t.touch = append(t.touch, id) // never past its capacity, as a slot is touched first once: the pieces stay valid
		}
	}
	if len(t.touch) > n {
		t.pieces = append(t.pieces, touchPiece{pos[0], t.touch[n:]})
		t.st.groupsInserted.Add(int64(len(t.touch) - n))
	}
	return nil
}

// consumeVecs folds evaluated rows into a hash table in two passes: the
// whole chunk resolves to group ids, then consumeIDs folds them.
// hashes are the key rows' hashKeyRows.
func (t *aggTable) consumeVecs(keys []*vector.Vector, hashes []uint64, args []*vector.Vector, pos []int64) error {
	t.ids = t.gi.resolve(keys, hashes, t.ids)
	t.growStates()
	return t.consumeIDs(args, pos)
}

// consumeIDs folds rows whose group ids are t.ids: each aggregate runs
// one typed loop over (ids, argument column). pos is each row's unique
// global input position.
func (t *aggTable) consumeIDs(args []*vector.Vector, pos []int64) error {
	if t.dom == nil {
		t.noteFirstSeen(t.ids, pos)
	} else if err := t.touchSlots(pos); err != nil {
		return err
	}
	for i := range t.shapes {
		if err := t.update(i, args[i]); err != nil {
			return err
		}
	}
	return nil
}

// update folds the argument rows into aggregate i's state (row r goes
// to group t.ids[r]); NULL arguments are skipped.
func (t *aggTable) update(i int, arg *vector.Vector) error {
	sh, st, ids := &t.shapes[i], t.state[i], t.ids
	kind := sh.spec.Kind
	sums := kind == plan.AggSum || kind == plan.AggAvg
	var nulls []bool
	if arg != nil { // nil: COUNT(*), every row counts
		nulls = arg.Nulls()
		if sums && !arg.Type().IsNumeric() || (kind == plan.AggMin || kind == plan.AggMax) && arg.Type() == vector.Blob {
			for r := range ids {
				if nulls == nil || !nulls[r] {
					if sums {
						return fmt.Errorf("exec: cannot sum %s", arg.Type())
					}
					return fmt.Errorf("exec: type %s is not orderable", arg.Type())
				}
			}
			return nil
		}
	}
	switch {
	case kind == plan.AggCount:
		count := st[0].Int64s()
		for r, id := range ids {
			if nulls == nil || !nulls[r] {
				count[id]++
			}
		}
	case sums && st[1].Type() == vector.Int64:
		if arg.Type() == vector.Int32 {
			addInto(st[0].Int64s(), st[1].Int64s(), ids, arg.Int32s(), nulls)
		} else {
			addInto(st[0].Int64s(), st[1].Int64s(), ids, arg.Int64s(), nulls)
		}
	case sums:
		switch arg.Type() {
		case vector.Int32:
			addInto(st[0].Int64s(), st[1].Float64s(), ids, arg.Int32s(), nulls)
		case vector.Int64:
			addInto(st[0].Int64s(), st[1].Float64s(), ids, arg.Int64s(), nulls)
		default:
			addInto(st[0].Int64s(), st[1].Float64s(), ids, arg.Float64s(), nulls)
		}
	default:
		t.stateBytes += t.foldExtreme(i, ids, arg, nulls)
	}
	return nil
}

// foldExtreme folds the rows of vals not marked in skip into MIN/MAX
// aggregate i's state, row r into group ids[r]; vals is an argument
// column or, at a merge, another table's extremum column. It returns
// the bytes by which retained string payloads grew.
func (t *aggTable) foldExtreme(i int, ids []int32, vals *vector.Vector, skip []bool) int64 {
	set, ext, max := t.state[i][0].Bools(), t.state[i][1], t.shapes[i].spec.Kind == plan.AggMax
	switch vals.Type() {
	case vector.Bool:
		xs := make([]int32, vals.Len())
		for r, b := range vals.Bools() {
			if b {
				xs[r] = 1
			}
		}
		extreme(set, ext.Int32s(), ids, xs, skip, max)
	case vector.Int32:
		extreme(set, ext.Int32s(), ids, vals.Int32s(), skip, max)
	case vector.Int64:
		extreme(set, ext.Int64s(), ids, vals.Int64s(), skip, max)
	case vector.Float64:
		extreme(set, ext.Float64s(), ids, vals.Float64s(), skip, max)
	case vector.String:
		return extreme(set, ext.Strings(), ids, vals.Strings(), skip, max)
	}
	return 0
}

// aggPartial is a dense batch of groups in transit between tables:
// worker table to merged table, consumer table to resident partition,
// memory to a spill file and back (agg_spill.go has its column form).
// Row j of every column is the batch's j-th group.
type aggPartial struct {
	keys      []*vector.Vector
	firstSeen []int64
	state     [][]*vector.Vector
}

// partial returns the groups sel as a batch; a dense table's batch
// carries no key columns, its group ids being the same in every table.
func (t *aggTable) partial(sel []int) *aggPartial {
	p := &aggPartial{
		firstSeen: gatherBy(t.firstSeen, sel),
		state:     make([][]*vector.Vector, len(t.shapes)),
	}
	if t.gi != nil {
		p.keys = gatherVecs(t.gi.keys, sel)
	}
	for i := range t.shapes {
		p.state[i] = gatherVecs(t.state[i], sel)
	}
	return p
}

// mergePartial folds a batch of groups into a hash table: worker
// tables, consumer dumps into resident partitions and spilled partial
// rows all arrive here.
func (t *aggTable) mergePartial(p *aggPartial) {
	t.ids = t.gi.groupIDs(p.keys, len(p.firstSeen), t.ids)
	t.growStates()
	t.stateBytes += t.mergeStates(t.ids, p)
}

// mergeStates folds the batch's groups into the groups ids — the one
// way aggregation state is ever combined. Every kind composes: counts
// and sums add, MIN/MAX compare. It writes nothing but the groups ids,
// so merges into disjoint ids may run at once, and returns the bytes by
// which retained string payloads grew.
func (t *aggTable) mergeStates(ids []int32, p *aggPartial) (grown int64) {
	t.noteFirstSeen(ids, p.firstSeen)
	for i, sh := range t.shapes {
		st, src := t.state[i], p.state[i]
		switch {
		case sh.isExtremum():
			unset := make([]bool, len(ids))
			for j, set := range src[0].Bools() {
				unset[j] = !set
			}
			grown += t.foldExtreme(i, ids, src[1], unset)
		default:
			for c := range st {
				if st[c].Type() == vector.Int64 {
					addAll(st[c].Int64s(), ids, src[c].Int64s())
				} else {
					addAll(st[c].Float64s(), ids, src[c].Float64s())
				}
			}
		}
	}
	return grown
}

// ensureGlobalGroup materializes the single output row a global
// aggregation owes even for empty input.
func (t *aggTable) ensureGlobalGroup() {
	if len(t.spec.GroupBy) == 0 && t.numGroups() == 0 {
		t.ids = t.gi.groupIDs(nil, 1, t.ids)
		t.growStates()
	}
}

// finalize computes aggregate i's output column for the groups order,
// in that order.
func (t *aggTable) finalize(i int, order []int) (*vector.Vector, error) {
	sh := &t.shapes[i]
	st := gatherVecs(t.state[i], order)
	v := st[len(st)-1] // the count, the sum or the extremum
	if sh.spec.Kind == plan.AggAvg {
		avg := make([]float64, len(order))
		for j, sum := range v.Float64s() {
			avg[j] = sum / float64(st[0].Int64s()[j])
		}
		v = vector.FromFloat64s(avg)
	}
	if ext := sh.isExtremum(); len(st) == 2 { // NULL over no input: no extremum set, or nothing counted
		for j := range order {
			if ext && !st[0].Bools()[j] || !ext && st[0].Int64s()[j] == 0 {
				v.SetNull(j)
			}
		}
	}
	return v.Cast(sh.spec.Typ) // the plan's type, where the state's natural one differs
}

// emitRun materializes the groups order, which ascends in firstSeen —
// every group of a hash table, in that order, when order is nil — as a
// run sorted by first appearance: the finalized output chunk plus each
// group's firstSeen position, so partitions merge back into exact
// serial first-appearance order via the shared run merger (zero sort
// keys: the merge orders purely by position, and firstSeen values are
// unique — no two groups share a first row).
func (t *aggTable) emitRun(ctx *Context, order []int) (*sortedRun, error) {
	if order == nil {
		order = orderByPos(ctx, t.firstSeen[:t.numGroups()])
	}
	t.st.groupsEmitted.Add(int64(len(order)))
	var cols []*vector.Vector
	if t.dom != nil {
		cols = t.dom.keyCols(order)
	} else {
		cols = gatherVecs(t.gi.keys, order)
	}
	for i := range t.shapes {
		v, err := t.finalize(i, order)
		if err != nil {
			return nil, err
		}
		cols = append(cols, v)
	}
	return &sortedRun{data: vector.NewChunk(cols...), pos: gatherBy(t.firstSeen, order)}, nil
}

// orderByPos returns the indexes of pos in ascending position order:
// the identity when pos already ascends (group ids are that order
// whenever one consumer saw its input in position order, which is
// every serial run), else a record sort on the positions (which are
// non-negative, so their own bits are their codes), whose records and
// scratch are charged to the budget while they live.
func orderByPos(ctx *Context, pos []int64) []int {
	if slices.IsSorted(pos) {
		return identitySel(len(pos))
	}
	ctx.memGrow(32 * int64(len(pos)))
	defer ctx.memShrink(32 * int64(len(pos)))
	recs := make([]sortRec, len(pos))
	for i, p := range pos {
		recs[i] = sortRec{code: uint64(p), row: i}
	}
	sortRecs(recs, make([]sortRec, len(pos)))
	order := make([]int, len(pos))
	for i, r := range recs {
		order[i] = r.row
	}
	return order
}

// aggInputs evaluates an aggregation's group and argument expressions
// over input chunks; each result is of its expression's planned type
// (plan.Evaluate), so tables and spill files are typed statically. A
// dense table's inputs (slotted) are its arguments alone: its group ids
// come with the chunk.
type aggInputs struct {
	spec    *plan.Aggregate
	slotted bool
	keys    []*vector.Vector
	args    []*vector.Vector // nil entries for COUNT(*)
	hashes  []uint64
}

func newAggInputs(spec *plan.Aggregate) *aggInputs {
	return &aggInputs{
		spec: spec,
		keys: make([]*vector.Vector, len(spec.GroupBy)),
		args: make([]*vector.Vector, len(spec.Aggs)),
	}
}

// eval fills args and, unless slotted, keys and hashes for one chunk.
func (in *aggInputs) eval(ch *vector.Chunk) (err error) {
	for i := 0; i < len(in.keys) && !in.slotted; i++ {
		if in.keys[i], err = plan.Evaluate(in.spec.GroupBy[i], ch); err != nil {
			return err
		}
	}
	for i, s := range in.spec.Aggs {
		if s.Arg == nil {
			continue
		}
		if in.args[i], err = plan.Evaluate(s.Arg, ch); err != nil {
			return err
		}
	}
	if !in.slotted {
		in.hashes = hashKeyRows(in.keys, ch.NumRows(), in.hashes)
	}
	return nil
}

// morselPos fills pos (grown as needed) with the global input positions
// of the n rows of the morsel-th chunk of the input stream, so output
// order is deterministic regardless of which worker consumed the chunk.
func morselPos(pos []int64, morsel, n int) []int64 {
	pos = slices.Grow(pos[:0], n)[:n]
	for r := range pos {
		pos[r] = int64(morsel)<<32 | int64(r)
	}
	return pos
}

// aggregation is one execution of an Aggregate node: the tables its
// input is consumed into, side by side, and how their outputs make the
// result. Without DISTINCT that is one table of the node's own spec,
// whose merger is the result. A DISTINCT aggregate is computed in two
// stages, because DISTINCT is a group-by with no aggregates (MIN and
// MAX skip them: they equal their plain forms):
//
//  1. dedup: per distinct argument expression x, a zero-aggregate table
//     keyed (group columns..., x) — NULL x included, so that every
//     input row lands in some pair — consumed, spilled (partitioned by
//     the pair's hash: one huge group spreads over every partition) and
//     merged like any other table. Its merger emits the surviving
//     pairs in order of first appearance.
//  2. fold: the pairs are consumed serially, each at its own position,
//     by a table keyed on the group columns that holds the plain forms
//     of the aggregates over x. A group's first row is the first row of
//     one of its pairs, so this table emits the same groups in the same
//     order as the table of the query's plain aggregates, and aggZip
//     puts their columns side by side.
//
// A float SUM/AVG(DISTINCT) so adds a group's values in the order they
// first appear in the input, at any worker count and any budget.
type aggregation struct {
	ctx     *Context
	st      *nodeStats
	workers int // consumption threads; several make the tables adaptive (aggShared)
	tables  []aggStage
	cols    [][2]int // result column → (table, column of its output); nil when tables[0]'s output is the result
}

type aggStage struct {
	spec   *plan.Aggregate // what the input is consumed into
	shared *aggShared
	fold   *plan.Aggregate // stage 2, over the output of spec; nil for the table of plain aggregates
	dom    *groupDomain    // the tables' domain when they are dense (groupOnCodes), else nil
	idCol  int             // then the input column that carries the rows' group ids
}

func newAggregation(ctx *Context, spec *plan.Aggregate, workers int, st *nodeStats) *aggregation {
	a := &aggregation{ctx: ctx, st: st, workers: max(workers, 1)}
	shared := func() *aggShared { return &aggShared{adaptive: workers > 1, st: st} }
	dedups := func(s plan.AggSpec) bool {
		return s.Distinct && s.Arg != nil && s.Kind != plan.AggMin && s.Kind != plan.AggMax
	}
	if !slices.ContainsFunc(spec.Aggs, dedups) {
		a.tables = []aggStage{{spec: spec, shared: shared()}}
		return a
	}
	ng := len(spec.GroupBy)
	plain := &plan.Aggregate{GroupBy: spec.GroupBy, GroupNames: spec.GroupNames, Hints: spec.Hints}
	a.tables = []aggStage{{spec: plain, shared: shared()}}
	groups := make([]plan.Expr, ng) // the group columns in a dedup table's output
	for i, g := range spec.GroupBy {
		groups[i] = &plan.ColRef{Idx: i, Typ: g.Type()}
		a.cols = append(a.cols, [2]int{0, i})
	}
	for _, s := range spec.Aggs {
		k, into := 0, plain
		if dedups(s) {
			k = 1 + slices.IndexFunc(a.tables[1:], func(st aggStage) bool { return reflect.DeepEqual(st.spec.GroupBy[ng], s.Arg) })
			if k == 0 {
				k = len(a.tables)
				a.tables = append(a.tables, aggStage{
					spec:   &plan.Aggregate{GroupBy: append(slices.Clone(spec.GroupBy), s.Arg), GroupNames: append(slices.Clone(spec.GroupNames), s.Name), Hints: spec.Hints},
					shared: shared(),
					fold:   &plan.Aggregate{GroupBy: groups, GroupNames: spec.GroupNames, Hints: spec.Hints},
				})
			}
			into = a.tables[k].fold
			s.Distinct, s.Arg = false, &plan.ColRef{Idx: ng, Typ: s.Arg.Type()}
		}
		a.cols = append(a.cols, [2]int{k, ng + len(into.Aggs)})
		into.Aggs = append(into.Aggs, s)
	}
	if len(plain.Aggs) == 0 { // every group is in every dedup table: no table of its own
		a.tables = a.tables[1:]
		for i := range a.cols[ng:] {
			a.cols[ng+i][0]--
		}
	}
	if len(a.tables) == 1 {
		a.cols = nil
	}
	return a
}

// aggConsumers is one consumption thread's state: a consumer per table.
type aggConsumers []*aggConsumer

func (a *aggregation) newConsumers() aggConsumers {
	cs := make(aggConsumers, len(a.tables))
	for i, st := range a.tables {
		cs[i] = newAggConsumer(a.ctx, st.spec, st.shared)
		if st.dom != nil {
			cs[i].slotted(st.dom, st.idCol)
		}
	}
	return cs
}

// consume folds one chunk into every table. morsel is the chunk's
// global index in the input stream.
func (cs aggConsumers) consume(ch *vector.Chunk, morsel int) error {
	for _, c := range cs {
		if err := c.consume(ch, morsel); err != nil {
			return err
		}
	}
	return nil
}

// run consumes the input — chunks that share a w never overlap — and
// returns the result's emitter. What the consumers hold when the input
// fails or the query is cancelled goes back to the budget.
func (a *aggregation) run(in *pipeSpec) (em aggEmitter, err error) {
	a.groupOnCodes(in)
	threads := make([]aggConsumers, a.workers)
	err = in.forEach(a.ctx, a.workers, func(w, morsel int, ch *vector.Chunk) error {
		if threads[w] == nil {
			threads[w] = a.newConsumers()
		}
		return threads[w].consume(ch, morsel)
	})
	threads = slices.DeleteFunc(threads, func(cs aggConsumers) bool { return cs == nil })
	if err == nil {
		em, err = a.finish(threads)
	}
	if err != nil {
		for _, c := range slices.Concat(threads...) {
			c.abandon()
		}
	}
	return em, err
}

// aggEmitter streams an aggregation's result.
type aggEmitter interface {
	next(ctx *Context) (*vector.Chunk, error)
	close()
}

// finish turns what the threads consumed into the result's emitter.
func (a *aggregation) finish(threads []aggConsumers) (aggEmitter, error) {
	srcs := make([]*runMerger, len(a.tables))
	for i, st := range a.tables {
		cons := make([]*aggConsumer, len(threads))
		for w, cs := range threads {
			cons[w] = cs[i]
		}
		m, err := finishAggEmit(a.ctx, st.spec, cons, st.shared)
		if err == nil && st.fold != nil {
			m, err = foldPairs(a.ctx, st.fold, m, a.st)
		}
		if err != nil {
			for _, m := range srcs[:i] {
				m.close()
			}
			return nil, err
		}
		srcs[i] = m
	}
	if a.cols == nil {
		return srcs[0], nil
	}
	for _, m := range srcs {
		m.keepPos = true
	}
	return &aggZip{srcs: srcs, cols: a.cols, cur: make([]*vector.Chunk, len(srcs)), pos: make([][]int64, len(srcs))}, nil
}

// foldPairs is stage 2 of a DISTINCT aggregate: it drains the dedup
// table's merger into a table of spec, each pair at the position it
// first appeared at, and returns that table's merger.
func foldPairs(ctx *Context, spec *plan.Aggregate, pairs *runMerger, st *nodeStats) (*runMerger, error) {
	defer pairs.close()
	pairs.keepPos = true
	shared := &aggShared{st: st}
	cons := newAggConsumer(ctx, spec, shared)
	for {
		ch, err := pairs.next(ctx)
		if err == nil && ch == nil {
			return finishAggEmit(ctx, spec, []*aggConsumer{cons}, shared)
		}
		if err == nil {
			err = cons.consumeAt(ch, pairs.pos)
		}
		if err != nil {
			cons.abandon()
			return nil, err
		}
	}
}

// aggZip emits the result of an aggregation over several tables. Their
// mergers emit the same groups in the same order (see aggregation);
// each batch takes the result's columns from them and checks, by the
// groups' positions, that it is so.
type aggZip struct {
	srcs []*runMerger
	cols [][2]int
	cur  []*vector.Chunk // what is left of each merger's last batch
	pos  [][]int64       // and its groups' positions
}

func (z *aggZip) next(ctx *Context) (*vector.Chunk, error) {
	n := 0
	for i, m := range z.srcs {
		if z.cur[i] == nil {
			ch, err := m.next(ctx)
			if err != nil {
				return nil, err
			}
			z.cur[i], z.pos[i] = ch, m.pos
		}
		rows := 0
		if z.cur[i] != nil {
			rows = z.cur[i].NumRows()
		}
		if i == 0 || rows < n {
			n = rows
		}
	}
	for i, ch := range z.cur { // n is 0 once any merger is drained: then all must be
		if (ch != nil) != (n > 0) || !slices.Equal(z.pos[i][:n], z.pos[0][:n]) {
			return nil, fmt.Errorf("exec: internal error: aggregation tables 0 and %d disagree on the groups they emit", i)
		}
	}
	if n == 0 {
		return nil, nil
	}
	cols := make([]*vector.Vector, len(z.cols))
	for c, from := range z.cols {
		cols[c] = z.cur[from[0]].Col(from[1]).Slice(0, n)
	}
	for i, ch := range z.cur {
		if z.pos[i] = z.pos[i][n:]; len(z.pos[i]) == 0 {
			z.cur[i] = nil
		} else {
			z.cur[i] = ch.Slice(n, ch.NumRows())
		}
	}
	return vector.NewChunk(cols...), nil
}

func (z *aggZip) close() {
	for _, m := range z.srcs {
		m.close()
	}
}

func (a *aggOp) Open(ctx *Context) error {
	a.ctx, a.emitter, a.started = ctx, nil, false
	return a.in.open(ctx)
}

func (a *aggOp) Next() (*vector.Chunk, error) {
	if !a.started {
		a.started = true
		em, err := newAggregation(a.ctx, a.spec, a.in.workers, a.st).run(a.in)
		if err != nil {
			return nil, err
		}
		a.emitter = em
	}
	return a.emitter.next(a.ctx)
}

func (a *aggOp) Close() error {
	if a.emitter != nil {
		a.emitter.close()
	}
	return a.in.close()
}
