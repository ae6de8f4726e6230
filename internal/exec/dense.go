// Grouping on codes. When every GROUP BY key of an aggregation's table
// is a bare column of the scan that feeds it, and the snapshot the scan
// reads bounds each key to a small domain, a group's id is a
// mixed-radix number of per-key slots: the table indexes dense arrays
// by it instead of probing a groupIndex, and the scan computes the ids
// from the segments' codes, never decoding the key columns. Such a
// table is a dense aggTable: the same state, kernels and emit as a hash
// table, with the slot ids in place of the resolved ones.
//
// A domain is fixed at open from the one snapshot the aggregation and
// its scan share (aggregation.groupOnCodes): an INTEGER or BIGINT key
// spans its statistics' [Min, Max], a VARCHAR key the union of its
// segments' dictionaries and its tail's values, and each key has one
// slot more, for NULL. The statistics must cover every row of the
// snapshot; a column they understate (a damaged image) is a typed
// error at the row that shows it (storage.ErrOutOfDomain), never an
// index out of range.
package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// groupDomain is the dense id space of one table's keys: slots is the
// product of the keys' sizes (n + 1 each), and group id = Σ slot_k ×
// stride_k.
type groupDomain struct {
	keys  []domainKey
	slots int
}

// domainKey is one key column's radix of a groupDomain.
type domainKey struct {
	col    int // the key's column in the scan's output
	typ    vector.Type
	n      uint64 // non-NULL values; slot n is NULL
	stride int32  // the weight of the key's slot in a group id

	lo int64 // INTEGER, BIGINT: slot s holds lo + s

	strs   []string         // VARCHAR: slot s holds strs[s]
	index  map[string]int32 // strs' inverse, for the tail's values
	remaps [][]int32        // per segment of the snapshot: dictionary code → slot; nil for the tail
}

// newGroupDomain returns the domain of the keys groupBy over the
// output of scan reading snap, or nil where the table must hash: a key
// that is not a bare column of the scan or not of a type with a
// domain, statistics that do not cover every row, a VARCHAR key with a
// sealed segment that is not dict-encoded, or domains whose product
// exceeds the snapshot's rows or denseSparsity times the product of
// the keys' distinct counts (each with NULL).
func newGroupDomain(snap *storage.TableSnapshot, scan *plan.Scan, groupBy []plan.Expr) *groupDomain {
	rows := snap.NumRows()
	if len(groupBy) == 0 || rows == 0 {
		return nil
	}
	limit := uint64(min(rows, math.MaxInt32))
	stats, types := snap.ColumnStatistics(), snap.Types()
	d := &groupDomain{slots: 1}
	ndv := 1.0
	for _, g := range groupBy {
		c, ok := scan.TableColumn(g)
		if !ok {
			return nil
		}
		ref := g.(*plan.ColRef)
		if ref.Typ != types[c] || stats[c].StatsRows != rows {
			return nil
		}
		most := limit / uint64(d.slots) // the largest size this key may have, its NULL slot included
		k := domainKey{col: ref.Idx, typ: ref.Typ, stride: int32(d.slots)}
		switch k.typ {
		case vector.Int32, vector.Int64:
			ok = k.intDomain(stats[c], most)
		case vector.String:
			ok = k.stringDomain(snap, c, most)
		default:
			ok = false
		}
		if !ok {
			return nil
		}
		d.slots *= int(k.n + 1)
		d.keys = append(d.keys, k)
		ndv *= float64(stats[c].Distinct + 1)
	}
	if float64(d.slots) > denseSparsity*ndv {
		return nil
	}
	return d
}

// denseSparsity bounds how many slots a dense table may have per group
// its keys' statistics expect: a sparse key (a few values far apart)
// hashes, so that no replica holds mostly slots no row falls into.
const denseSparsity = 4

// intDomain sets an integer key's domain to its statistics' bounds,
// reporting false if it holds more than most slots. max − min is taken
// in uint64, exact for max ≥ min, and compared before the slots are
// counted, so a span near 2^64 declines instead of wrapping.
func (k *domainKey) intDomain(st storage.ColumnStats, most uint64) bool {
	if !st.HasMinMax {
		return st.NullCount == st.StatsRows && most >= 1 // only NULL
	}
	isInt := func(v vector.Value) bool { return v.Type() == vector.Int32 || v.Type() == vector.Int64 }
	if !isInt(st.Min) || !isInt(st.Max) || st.Max.Int64() < st.Min.Int64() {
		return false
	}
	span := uint64(st.Max.Int64()) - uint64(st.Min.Int64())
	if span >= most || span+2 > most {
		return false
	}
	k.lo, k.n = st.Min.Int64(), span+1
	return true
}

// stringDomain sets a VARCHAR key's domain to the union of its sealed
// segments' dictionaries and its tail's values, each sealed segment
// getting the remap of its codes; it reports false if a sealed segment
// is not dict-encoded or the union holds more than most slots.
func (k *domainKey) stringDomain(snap *storage.TableSnapshot, c int, most uint64) bool {
	k.index, k.remaps = map[string]int32{}, make([][]int32, snap.NumSegments())
	slot := func(s string) int32 {
		id, ok := k.index[s]
		if !ok {
			id = int32(len(k.strs))
			k.index[s] = id
			k.strs = append(k.strs, s)
		}
		return id
	}
	var one []*storage.SealedColumn
	col := []int{c}
	for i := range k.remaps {
		one = snap.SegmentColumns(i, col, one[:0])
		if !snap.SegmentIsSealed(i) {
			v, err := one[0].Decode(nil)
			if err != nil {
				return false
			}
			for r, s := range v.Strings() {
				if !v.IsNull(r) {
					slot(s)
				}
			}
		} else {
			entries, err := one[0].Dict()
			if err != nil || entries == nil {
				return false
			}
			remap := make([]int32, len(entries))
			for code, s := range entries {
				remap[code] = slot(s)
			}
			k.remaps[i] = remap
		}
		if uint64(len(k.strs)) >= most {
			return false
		}
	}
	k.n = uint64(len(k.strs))
	return true
}

// slotIDs returns, in ids' storage, the group ids of the rows sel of
// segment seg, whose key columns are among cols.
func (d *groupDomain) slotIDs(cols []*storage.SealedColumn, seg int, sel []int, ids []int32) ([]int32, error) {
	ids = slices.Grow(ids[:0], len(sel))[:len(sel)]
	clear(ids)
	for i := range d.keys {
		k := &d.keys[i]
		c := cols[k.col]
		var err error
		switch {
		case k.typ != vector.String:
			err = c.IntSlots(ids, sel, k.lo, k.n, k.stride)
		case k.remaps[seg] != nil:
			err = c.DictSlots(ids, sel, k.remaps[seg], k.stride)
		default:
			err = k.tailSlots(c, ids, sel)
		}
		if err != nil {
			return nil, fmt.Errorf("exec: GROUP BY key %d: %w", i, err)
		}
	}
	return ids, nil
}

// tailSlots adds the slots of a VARCHAR key's unsealed rows, looked up
// by value.
func (k *domainKey) tailSlots(c *storage.SealedColumn, ids []int32, sel []int) error {
	v, err := c.Decode(nil)
	if err != nil {
		return err
	}
	xs, nulls := v.Strings(), v.Nulls()
	for j, r := range sel {
		s := int32(k.n)
		if nulls == nil || !nulls[r] {
			var ok bool
			if s, ok = k.index[xs[r]]; !ok {
				return fmt.Errorf("%w: a VARCHAR value outside its domain", storage.ErrOutOfDomain)
			}
		}
		ids[j] += s * k.stride
	}
	return nil
}

// keyCols rebuilds the key columns of the groups ids from their slots.
func (d *groupDomain) keyCols(ids []int) []*vector.Vector {
	cols := make([]*vector.Vector, len(d.keys))
	slots := make([]int, len(ids))
	for c := range d.keys {
		k := &d.keys[c]
		var nulls []int
		last := c == len(d.keys)-1
		for j, id := range ids {
			if k.stride > 1 {
				id /= int(k.stride)
			}
			if !last {
				id %= int(k.n + 1)
			}
			if slots[j] = id; id == int(k.n) {
				nulls = append(nulls, j)
			}
		}
		switch k.typ {
		case vector.Int32:
			cols[c] = vector.FromInt32s(keyValues(slots, k.n, func(s int) int32 { return int32(k.lo + int64(s)) }))
		case vector.Int64:
			cols[c] = vector.FromInt64s(keyValues(slots, k.n, func(s int) int64 { return k.lo + int64(s) }))
		default:
			cols[c] = vector.FromStrings(keyValues(slots, k.n, func(s int) string { return k.strs[s] }))
		}
		for _, j := range nulls {
			cols[c].SetNull(j)
		}
	}
	return cols
}

// keyValues maps each slot to its key's value, the zero value for the
// NULL slot null.
func keyValues[T any](slots []int, null uint64, val func(int) T) []T {
	out := make([]T, len(slots))
	for j, s := range slots {
		if s != int(null) {
			out[j] = val(s)
		}
	}
	return out
}

// groupOnCodes makes dense every table of the aggregation whose keys
// have a domain over its scan (newGroupDomain). Under a memory budget a
// dense table cannot spill, so there it must not grow after creation —
// no MIN/MAX over strings, whose payloads do — and all the dense
// tables' replicas together must pass shouldSpill's fair-share test:
// they are never the state a budget would have to spill. It pins the
// snapshot the scan then reads and asks the scan for each dense table's
// group ids as a column after its own, leaving undecoded the key
// columns nothing else reads.
func (a *aggregation) groupOnCodes(in *pipeSpec) {
	for i := range a.tables {
		a.tables[i].dom = nil
	}
	if len(in.stages) > 0 {
		return
	}
	s, ok := in.src.(*scanSource)
	if !ok {
		return
	}
	snap := a.ctx.tableData(s.scan.Table)
	s.pinned, s.groups = snap, nil
	read := make([]bool, s.scan.Width()) // the scan columns a hash key or an argument reads
	mark := func(c *plan.ColRef) {
		if c.Idx < len(read) {
			read[c.Idx] = true
		}
	}
	var doms []*groupDomain
	slots := 0
	var charged int64 // under a budget, what the dense tables' replicas take
	for i := range a.tables {
		st := &a.tables[i]
		for _, g := range st.spec.Aggs {
			if g.Arg != nil {
				plan.EachColRef(g.Arg, mark)
			}
		}
		d := newGroupDomain(snap, s.scan, st.spec.GroupBy)
		if d != nil && a.ctx.mem != nil {
			shapes := newAggShapes(st.spec)
			bytes := int64(a.workers) * int64(d.slots) * denseWidth(shapes)
			if growsStrings(shapes) || 4*(charged+bytes) >= a.ctx.mem.limit() {
				d = nil
			} else {
				charged += bytes
			}
		}
		if d == nil {
			for _, g := range st.spec.GroupBy {
				plan.EachColRef(g, mark)
			}
			continue
		}
		st.dom, st.idCol = d, s.outWidth()+len(doms)
		doms = append(doms, d)
		slots += d.slots
	}
	if len(doms) == 0 {
		return
	}
	a.st.dense.Store(int64(slots))
	skip := make([]bool, len(read))
	for _, d := range doms {
		for _, k := range d.keys {
			skip[k.col] = !read[k.col]
		}
	}
	s.groups = &scanGroups{domains: doms, skip: skip}
}

// growsStrings reports whether a table of the aggregates shapes holds
// string payloads, which grow as rows arrive: MIN or MAX of a VARCHAR.
func growsStrings(shapes []aggShape) bool {
	for _, sh := range shapes {
		if sh.isExtremum() && sh.state[1] == vector.String {
			return true
		}
	}
	return false
}

// scanGroups is what an aggregation that groups on codes asks of its
// scan: per domain, a column of the rows' group ids after the scan's
// own, and the key columns it must not decode (skip). A skipped
// column's place holds the first id column, which nothing reads there.
type scanGroups struct {
	domains []*groupDomain
	skip    []bool
}

// appendIDs appends to cols, the columns a scan emits for the rows sel
// of its segment seg (sealed columns segCols), one id column per
// domain, computed into the worker's buffers.
func (g *scanGroups) appendIDs(cols []*vector.Vector, segCols []*storage.SealedColumn, seg int, sel []int, bufs *[][]int32) ([]*vector.Vector, error) {
	if len(*bufs) < len(g.domains) {
		*bufs = make([][]int32, len(g.domains))
	}
	first := len(cols)
	for k, d := range g.domains {
		ids, err := d.slotIDs(segCols, seg, sel, (*bufs)[k])
		if err != nil {
			return nil, err
		}
		(*bufs)[k] = ids
		cols = append(cols, vector.FromInt32s(ids))
	}
	for p, skip := range g.skip {
		if skip {
			cols[p] = cols[first]
		}
	}
	return cols, nil
}

// denseRangeSlots is the fewest slots a range of a dense merge takes.
const denseRangeSlots = 4096

// finishDense merges the dense tables of one table's consumers into
// the first and returns it as a run that emits lazily, a chunk of
// groups at a time, by first appearance. The slots are cut into ranges
// that up to workers goroutines take in turn, each folding in what
// every other table holds in its range, slot by slot and only over the
// slots that table touched: an untouched slot has nothing to add, and
// a range costs what the replicas used of it. The groups' order is the
// tables' merged touch order (touchOrder), which one more task builds
// beside the ranges.
func finishDense(ctx *Context, tables []*aggTable, workers int) (*mergeRun, error) {
	t := tables[0]
	n := t.dom.slots
	parts := 0
	if len(tables) > 1 {
		parts = max(1, min(4*workers, n/denseRangeSlots))
	}
	grown := make([]int64, parts)
	var order []int
	parallelFor(workers, parts+1, func(_, k int) error {
		if k == parts {
			order = touchOrder(tables)
			return nil
		}
		lo, hi := k*n/parts, (k+1)*n/parts
		for _, src := range tables[1:] {
			used := src.touched(lo, hi)
			ids := make([]int32, len(used))
			for j, s := range used {
				ids[j] = int32(s)
			}
			grown[k] += t.mergeStates(ids, src.partial(used))
		}
		return nil
	})
	for _, g := range grown {
		t.stateBytes += g
		ctx.memGrow(g)
	}
	emitted := 0
	fetch := func() (*sortedRun, error) {
		if emitted == len(order) {
			return nil, nil
		}
		ids := order[emitted:min(emitted+vector.DefaultChunkSize, len(order))]
		emitted += len(ids)
		return t.emitRun(ctx, ids)
	}
	first, err := fetch()
	if err != nil {
		return nil, err
	}
	mr := newMemRun(first)
	mr.fetch = fetch
	return mr, nil
}

// touchOrder merges the tables' touch pieces into the order the slots
// first appear across them, each slot once, without a sort of the
// slots: a piece is one chunk, a chunk one morsel, so taken by their
// chunks' first positions the pieces come in input order, and a slot's
// first piece holds its first row.
func touchOrder(tables []*aggTable) []int {
	var pieces []touchPiece
	for _, t := range tables {
		pieces = append(pieces, t.pieces...)
	}
	slices.SortFunc(pieces, func(a, b touchPiece) int { return cmp.Compare(a.at, b.at) })
	taken := make([]bool, tables[0].dom.slots)
	order := make([]int, 0, len(tables[0].touch))
	for _, p := range pieces {
		for _, s := range p.slots {
			if !taken[s] {
				taken[s] = true
				order = append(order, int(s))
			}
		}
	}
	return order
}

// touched returns the slots in [lo, hi) of a dense table that some row
// fell into.
func (t *aggTable) touched(lo, hi int) []int {
	var used []int
	for s, p := range t.firstSeen[lo:hi] {
		if p != math.MaxInt64 {
			used = append(used, lo+s)
		}
	}
	return used
}
