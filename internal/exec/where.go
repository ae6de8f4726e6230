package exec

import (
	"fmt"
	"math"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Where is a WHERE predicate compiled once for every chunk or segment
// it filters. Its conjuncts of the form `column <op> constant`
// (plan.SplitFilter) run as typed selection kernels that narrow one
// selection vector in place — no constant vector, no bool vector, no
// AND vector — and, over a sealed segment, on the column's codes; fused
// into a scan, they also skip the segments zone maps refute (Refutes).
// The other conjuncts, the residual, are evaluated over every row of the
// columns they read, so a query that raises an error on some row still
// raises it when a kernel rejects that row.
type Where struct {
	kernels []plan.ScanPredicate
	// residual reads a chunk of the input columns resCols, in that
	// order: column reference i names input column resCols[i].
	residual []plan.Expr
	resCols  []int
}

// CompileWhere compiles pred; a nil pred keeps every row.
func CompileWhere(pred plan.Expr) *Where {
	kernels, residual := plan.SplitFilter(pred)
	w := &Where{kernels: kernels}
	at := map[int]int{}
	for _, e := range residual {
		w.residual = append(w.residual, plan.MapColRefs(e, func(c *plan.ColRef) plan.Expr {
			i, ok := at[c.Idx]
			if !ok {
				i = len(w.resCols)
				at[c.Idx] = i
				w.resCols = append(w.resCols, c.Idx)
			}
			return &plan.ColRef{Idx: i, Typ: c.Typ, Name: c.Name}
		}))
	}
	if len(w.residual) > 0 && len(w.resCols) == 0 {
		w.resCols = []int{0} // a column-free residual still needs the row count
	}
	return w
}

// Refutes reports whether a segment's zone maps prove that no row of
// it passes w's kernels. zones holds one zone map per table column and
// projection names the table column of each of w's input columns (nil:
// the identity). It prunes only on positive knowledge: a column without
// statistics (the mutable tail, compression off) or a bound that does
// not compare with the constant keeps the segment. A comparison is
// never TRUE on NULL, so an all-NULL column refutes every kernel but
// `<>`, which never prunes: a NaN row passes it while no bound shows it.
func (w *Where) Refutes(zones []storage.ZoneMap, projection []int) bool {
	for _, k := range w.kernels {
		col := k.Col
		if projection != nil {
			col = projection[col]
		}
		if k.Op == sql.OpNe || col >= len(zones) || zones[col].Rows == 0 {
			continue
		}
		z := zones[col]
		if z.NullCount == z.Rows {
			return true
		}
		if !z.HasMinMax() {
			continue
		}
		lo, errLo := z.Min.Compare(k.Val)
		hi, errHi := z.Max.Compare(k.Val)
		switch {
		case errLo != nil || errHi != nil:
		case k.Op == sql.OpEq && (lo > 0 || hi < 0),
			k.Op == sql.OpLt && lo >= 0,
			k.Op == sql.OpLe && lo > 0,
			k.Op == sql.OpGt && hi <= 0,
			k.Op == sql.OpGe && hi < 0:
			return true
		}
	}
	return false
}

// Select returns the rows of ch where the predicate is TRUE, in
// ascending order, in sel's storage.
func (w *Where) Select(ch *vector.Chunk, sel []int) ([]int, error) {
	n := ch.NumRows()
	if n == 0 {
		return sel[:0], nil
	}
	sel = allRows(sel, n)
	for _, k := range w.kernels {
		var err error
		if sel, err = keep(sel, ch.Col(k.Col), k.Op, k.Val); err != nil {
			return nil, err
		}
	}
	if len(w.residual) == 0 {
		return sel, nil
	}
	cols := make([]*vector.Vector, len(w.resCols))
	for i, c := range w.resCols {
		cols[i] = ch.Col(c)
	}
	return w.keepResidual(vector.NewChunk(cols...), sel)
}

// allRows returns 0, 1, …, n-1 in sel's storage.
func allRows(sel []int, n int) []int {
	if cap(sel) < n {
		sel = make([]int, n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// keepResidual narrows sel to the rows where every residual conjunct,
// evaluated over every row of rch (the resCols), is TRUE.
func (w *Where) keepResidual(rch *vector.Chunk, sel []int) ([]int, error) {
	for _, e := range w.residual {
		pv, err := plan.Evaluate(e, rch)
		if err != nil {
			return nil, err
		}
		bools, out := pv.Bools(), sel[:0]
		for _, r := range sel {
			if bools[r] && !pv.IsNull(r) {
				out = append(out, r)
			}
		}
		sel = out
	}
	return sel, nil
}

// filter returns the rows of ch the predicate keeps: nil when none do,
// ch itself when all do, otherwise the survivors gathered into fresh
// vectors. *sel is the caller's reused selection buffer.
func (w *Where) filter(ch *vector.Chunk, sel *[]int) (*vector.Chunk, error) {
	s, err := w.Select(ch, *sel)
	if err != nil {
		return nil, err
	}
	*sel = s
	switch len(s) {
	case 0:
		return nil, nil
	case ch.NumRows():
		return ch, nil
	}
	return ch.Gather(s), nil
}

// SegmentScratch is one reader's reusable state for ScanSegment: the
// selection, the segment's columns, and per input column the whole
// decode that a kernel without a code path or the residual reads
// (whole, for the current segment only), the buffer that decode goes
// into (bufs) and the buffer the emitted rows decode into (outs). Its
// zero value reuses both buffers for every segment, so an emitted
// column is valid until the next ScanSegment call; own is set where
// emitted columns must outlive it (the morsel exchange), and then they
// never sit in a buffer. decoded and coded count the values decoded
// from compressed columns and the rows kernels evaluated on codes.
// skip, when set, names input columns not to emit: their emitted
// column is nil.
type SegmentScratch struct {
	own               bool
	skip              []bool
	sel               []int
	cols              []*storage.SealedColumn
	whole, bufs, outs []*vector.Vector
	decoded, coded    int64
}

// ScanSegment evaluates w over segment seg of snap, whose columns
// projection names (nil: all of them, in table order) are w's input:
// see scanSegment.
func (w *Where) ScanSegment(snap *storage.TableSnapshot, seg int, projection []int, sc *SegmentScratch, emit bool) ([]int, []*vector.Vector, error) {
	sc.cols = snap.SegmentColumns(seg, projection, sc.cols[:0])
	return w.scanSegment(sc.cols, sc, emit)
}

// scanSegment returns the rows of one segment, whose columns are cols,
// where the predicate is TRUE, ascending, in sc's storage, and with
// emit the columns of those rows. Each kernel runs on its column's
// codes where the encoding allows (codeKeep); otherwise it decodes the
// column whole and runs keep. The residual sees its own columns whole.
// Only then are the emitted columns decoded, for the surviving rows
// alone: nothing is gathered when every row survives, and nothing is
// emitted when none does.
func (w *Where) scanSegment(cols []*storage.SealedColumn, sc *SegmentScratch, emit bool) ([]int, []*vector.Vector, error) {
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Rows
	}
	if n := len(cols); len(sc.whole) < n {
		sc.whole, sc.bufs, sc.outs = make([]*vector.Vector, n), make([]*vector.Vector, n), make([]*vector.Vector, n)
	}
	clear(sc.whole)
	sel := allRows(sc.sel, rows)
	for _, k := range w.kernels {
		if len(sel) == 0 {
			break
		}
		out, ok, err := sc.codeKeep(cols[k.Col], k, sel)
		if err == nil && !ok {
			var v *vector.Vector
			if v, err = sc.decodeWhole(cols, k.Col); err == nil {
				out, err = keep(sel, v, k.Op, k.Val)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		sel = out
	}
	if len(w.residual) > 0 && rows > 0 {
		rcols := make([]*vector.Vector, len(w.resCols))
		for i, c := range w.resCols {
			v, err := sc.decodeWhole(cols, c)
			if err != nil {
				return nil, nil, err
			}
			rcols[i] = v
		}
		var err error
		if sel, err = w.keepResidual(vector.NewChunk(rcols...), sel); err != nil {
			return nil, nil, err
		}
	}
	sc.sel = sel
	if !emit || len(sel) == 0 {
		return sel, nil, nil
	}
	out := make([]*vector.Vector, len(cols))
	for p := range cols {
		if sc.skip != nil && sc.skip[p] {
			continue
		}
		v, err := sc.emit(cols, p, sel)
		if err != nil {
			return nil, nil, err
		}
		out[p] = v
	}
	return sel, out, nil
}

// codeKeep runs kernel k over an encoded column's codes: an integer
// comparison as the interval of values it passes (intRange), a string
// comparison once per dictionary entry. It reports false where it
// cannot, and the caller decodes.
func (sc *SegmentScratch) codeKeep(c *storage.SealedColumn, k plan.ScanPredicate, sel []int) ([]int, bool, error) {
	var out []int
	var ok bool
	var err error
	switch {
	case c.Typ == vector.Int32 || c.Typ == vector.Int64:
		lo, span, none, exact := intRange(c.Typ, k.Op, k.Val)
		switch {
		case !exact:
			return sel, false, nil
		case none:
			return sel[:0], true, nil
		}
		out, ok, err = c.KeepInts(sel, lo, span)
	case c.Typ == vector.String && k.Val.Type() == vector.String:
		cv := k.Val.Str()
		out, ok, err = c.KeepStrings(sel, func(s string) bool { return plan.CmpToBool(k.Op, plan.CompareString(s, cv)) })
	}
	if ok {
		sc.coded += int64(len(sel))
	}
	return out, ok, err
}

// decodeWhole returns input column p decoded whole, once per segment,
// into its buffer (a raw column is its own vector and takes none).
func (sc *SegmentScratch) decodeWhole(cols []*storage.SealedColumn, p int) (*vector.Vector, error) {
	if v := sc.whole[p]; v != nil {
		return v, nil
	}
	c := cols[p]
	v, err := c.Decode(sc.bufs[p])
	if err != nil {
		return nil, fmt.Errorf("exec: segment column %d: %w", p, err)
	}
	if c.Enc != storage.EncRaw {
		sc.bufs[p] = v
		sc.decoded += int64(c.Rows)
	}
	sc.whole[p] = v
	return v, nil
}

// emit returns the rows sel of input column p: a column decoded whole
// as it is if every row survived — its buffer given up if the column
// must outlive the scratch — and otherwise the survivors, decoded from
// the codes.
func (sc *SegmentScratch) emit(cols []*storage.SealedColumn, p int, sel []int) (*vector.Vector, error) {
	c := cols[p]
	if len(sel) == c.Rows {
		if v := sc.whole[p]; v != nil {
			if sc.own && v == sc.bufs[p] {
				sc.bufs[p] = nil
			}
			return v, nil
		}
		sel = nil
	}
	var dst *vector.Vector
	if !sc.own {
		dst = sc.outs[p]
	}
	v, err := c.DecodeSel(dst, sel)
	if err != nil {
		return nil, fmt.Errorf("exec: segment column %d: %w", p, err)
	}
	if c.Enc != storage.EncRaw {
		sc.decoded += int64(v.Len())
	}
	// A raw column's cached vector is the store's: it never takes a slot.
	if !sc.own && (c.Enc != storage.EncRaw || sel != nil) {
		sc.outs[p] = v
	}
	return v, nil
}

// intRange returns the values v of an integer column of type ct for
// which keep's test v <op> c holds, as KeepInts' cyclic interval lo,
// lo+1, …, lo+span of ct's domain; none when no value passes. exact is
// false where it cannot say: a DOUBLE constant against BIGINT at or
// past ±2^53, where the column's conversion to DOUBLE rounds.
func intRange(ct vector.Type, op sql.BinaryOp, c vector.Value) (lo int64, span uint64, none, exact bool) {
	dmin, dmax := int64(math.MinInt64), int64(math.MaxInt64)
	if ct == vector.Int32 {
		dmin, dmax = math.MinInt32, math.MaxInt32
	}
	full := uint64(dmax) - uint64(dmin)
	lo, hi := dmin, dmax // the passing values, or for <> the one that fails
	if c.Type() == vector.Float64 {
		f := c.Float64()
		switch {
		case math.IsNaN(f):
			return dmin, full, op != sql.OpNe, true
		case ct == vector.Int64 && !math.IsInf(f, 0) && math.Abs(f) >= 1<<53:
			return 0, 0, false, false
		}
		// Every integer in the domain converts to DOUBLE exactly near f,
		// so the passing integers are bounded by f's floor and ceiling.
		lf, hf := math.Inf(-1), math.Inf(1)
		switch op {
		case sql.OpLt:
			hf = math.Ceil(f) - 1
		case sql.OpLe:
			hf = math.Floor(f)
		case sql.OpGt:
			lf = math.Floor(f) + 1
		case sql.OpGe:
			lf = math.Ceil(f)
		default: // = and <>
			if f != math.Trunc(f) {
				return dmin, full, op == sql.OpEq, true
			}
			lf, hf = f, f
		}
		if lf > float64(dmax) || hf < float64(dmin) {
			if op == sql.OpNe {
				return dmin, full, false, true
			}
			return 0, 0, true, true
		}
		if lf > float64(dmin) {
			lo = int64(lf)
		}
		if hf < float64(dmax) {
			hi = int64(hf)
		}
	} else {
		x := c.Int64()
		switch op {
		case sql.OpLt:
			if x == math.MinInt64 {
				return 0, 0, true, true
			}
			hi = x - 1
		case sql.OpLe:
			hi = x
		case sql.OpGt:
			if x == math.MaxInt64 {
				return 0, 0, true, true
			}
			lo = x + 1
		case sql.OpGe:
			lo = x
		default:
			lo, hi = x, x
		}
		lo, hi = max(lo, dmin), min(hi, dmax)
		if lo > hi {
			if op == sql.OpNe {
				return dmin, full, false, true
			}
			return 0, 0, true, true
		}
	}
	if op == sql.OpNe { // everything but lo: from lo+1 round to lo-1
		return lo + 1, full - 1, false, true
	}
	return lo, uint64(hi) - uint64(lo), false, true
}

// keep narrows sel to the non-NULL rows where col <op> c holds. Types
// follow evalCompare: float64 when either side is DOUBLE, int64
// otherwise, strings bytewise. Go's operators already give
// floatCmpToBool's NaN rule (NaN fails everything but <>).
func keep(sel []int, col *vector.Vector, op sql.BinaryOp, c vector.Value) ([]int, error) {
	if nulls := col.Nulls(); nulls != nil {
		out := sel[:0]
		for _, r := range sel {
			if !nulls[r] {
				out = append(out, r)
			}
		}
		sel = out
	}
	ct, vt := col.Type(), c.Type()
	switch {
	case ct == vector.String && vt == vector.String:
		return keepCompared(sel, col.Strings(), op, c.Str(), plan.CompareString), nil
	case ct == vector.Bool && vt == vector.Bool:
		return keepCompared(sel, col.Bools(), op, c.Bool(), plan.CompareBool), nil
	case !ct.IsNumeric() || !vt.IsNumeric():
		return nil, fmt.Errorf("exec: cannot compare %s with %s", ct, vt)
	case ct == vector.Float64:
		return keepNumbers(sel, col.Float64s(), op, c.Float64()), nil
	case vt == vector.Float64 && ct == vector.Int64:
		return keepNumbers(sel, col.Int64s(), op, c.Float64()), nil
	case vt == vector.Float64:
		return keepNumbers(sel, col.Int32s(), op, c.Float64()), nil
	case ct == vector.Int64:
		return keepNumbers(sel, col.Int64s(), op, c.Int64()), nil
	}
	return keepNumbers(sel, col.Int32s(), op, c.Int64()), nil
}

// keepNumbers keeps the rows r of sel where T(col[r]) <op> c.
func keepNumbers[S, T int32 | int64 | float64](sel []int, col []S, op sql.BinaryOp, c T) []int {
	k := 0
	switch op {
	case sql.OpEq:
		for _, r := range sel {
			if T(col[r]) == c {
				sel[k] = r
				k++
			}
		}
	case sql.OpNe:
		for _, r := range sel {
			if T(col[r]) != c {
				sel[k] = r
				k++
			}
		}
	case sql.OpLt:
		for _, r := range sel {
			if T(col[r]) < c {
				sel[k] = r
				k++
			}
		}
	case sql.OpLe:
		for _, r := range sel {
			if T(col[r]) <= c {
				sel[k] = r
				k++
			}
		}
	case sql.OpGt:
		for _, r := range sel {
			if T(col[r]) > c {
				sel[k] = r
				k++
			}
		}
	case sql.OpGe:
		for _, r := range sel {
			if T(col[r]) >= c {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

// keepCompared is keepNumbers for VARCHAR and BOOLEAN, whose order is
// cmp's.
func keepCompared[T any](sel []int, col []T, op sql.BinaryOp, c T, cmp func(a, b T) int) []int {
	k := 0
	for _, r := range sel {
		if plan.CmpToBool(op, cmp(col[r], c)) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}
