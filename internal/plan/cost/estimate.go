// Package cost implements the cost-based planning pass that runs
// between binding/pruning and execution. It estimates predicate
// selectivities and join cardinalities from the column statistics the
// storage layer maintains (zone maps and HLL distinct-count sketches,
// rolled up to table level), and uses the estimates to reorder
// inner-join chains, choose hash-join build sides, and emit advisory
// execution hints (serial override, spill fan-out). Every rewrite is
// result-preserving: reordered subtrees tag base rows with their table
// positions and restore the syntactic row and column order with an
// explicit sort and projection, so output bytes never change.
package cost

import (
	"math"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// clampSel bounds a selectivity to [1/rows, 1]: a predicate never
// keeps more than everything, and the model never claims an exact
// empty result (estimates steer decisions, they don't prove absence).
func clampSel(s, rows float64) float64 {
	lo := 1 / math.Max(rows, 1)
	if s < lo {
		return lo
	}
	if s > 1 {
		return 1
	}
	return s
}

// colNDV estimates a column's distinct count: the merged-HLL estimate
// scaled linearly for partial sketch coverage and clamped to the row
// count; columns without a sketch default to sqrt(rows).
func colNDV(st storage.ColumnStats, rows float64) float64 {
	if st.Distinct > 0 {
		d := float64(st.Distinct)
		if st.SketchRows > 0 && float64(st.SketchRows) < rows {
			d *= rows / float64(st.SketchRows)
		}
		return math.Max(1, math.Min(d, rows))
	}
	return math.Max(1, math.Sqrt(math.Max(rows, 1)))
}

// predSel estimates the fraction of rows a `col <op> const` predicate
// keeps. Equality uses 1/NDV from the HLL sketch; ranges interpolate
// the constant linearly inside the zone-map [min,max]; both scale by
// the non-NULL fraction (a comparison is never TRUE on NULL). Columns
// without statistics fall back to 1/3 (range, matching the classic
// System R default) and 1/NDV-default (equality).
func predSel(stats []storage.ColumnStats, rows float64, p plan.ScanPredicate) float64 {
	var st storage.ColumnStats
	if p.Col >= 0 && p.Col < len(stats) {
		st = stats[p.Col]
	}
	notNull := 1.0
	if st.StatsRows > 0 {
		notNull = 1 - float64(st.NullCount)/float64(st.StatsRows)
	}
	if p.Op == sql.OpEq {
		return clampSel(notNull/colNDV(st, rows), rows)
	}
	if frac, ok := rangeFraction(st, p); ok {
		return clampSel(notNull*frac, rows)
	}
	return clampSel(notNull/3, rows)
}

// rangeFraction linearly interpolates the predicate constant within
// the column's zone-map bounds, assuming a uniform value distribution.
func rangeFraction(st storage.ColumnStats, p plan.ScanPredicate) (float64, bool) {
	if !st.HasMinMax {
		return 0, false
	}
	mn, ok1 := numericValue(st.Min)
	mx, ok2 := numericValue(st.Max)
	v, ok3 := numericValue(p.Val)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	if mx <= mn { // single-valued column: keep all or nothing
		keep := false
		switch p.Op {
		case sql.OpLt:
			keep = mn < v
		case sql.OpLe:
			keep = mn <= v
		case sql.OpGt:
			keep = mn > v
		case sql.OpGe:
			keep = mn >= v
		default:
			return 0, false
		}
		if keep {
			return 1, true
		}
		return 0, true
	}
	f := (v - mn) / (mx - mn)
	switch p.Op {
	case sql.OpLt, sql.OpLe:
		return math.Min(math.Max(f, 0), 1), true
	case sql.OpGt, sql.OpGe:
		return math.Min(math.Max(1-f, 0), 1), true
	}
	return 0, false
}

func numericValue(v vector.Value) (float64, bool) {
	if v.IsNull() {
		return 0, false
	}
	switch v.Type() {
	case vector.Int32, vector.Int64:
		return float64(v.Int64()), true
	case vector.Float64:
		f := v.Float64()
		if math.IsNaN(f) {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// conjSel estimates a filter conjunct over the output of scan sc
// (nil: not directly over a scan), whose columns begin at position
// start of the conjunct's input: a kernel (plan.SplitFilter) from its
// column's statistics (predSel), and anything else — `<>` too, on which
// statistics say little — by its shape (filterConjSel).
func conjSel(cj plan.Expr, sc *plan.Scan, start int) float64 {
	k, _ := plan.SplitFilter(cj)
	if sc == nil || len(k) == 0 || k[0].Op == sql.OpNe || k[0].Col-start >= sc.Width() {
		return filterConjSel(cj)
	}
	p := k[0]
	if p.Col -= start; sc.Projection != nil {
		p.Col = sc.Projection[p.Col]
	}
	return predSel(sc.Table.Data.ColumnStatistics(), float64(sc.Table.Data.NumRows()), p)
}

// filterConjSel gives a shape-based default selectivity for a filter
// conjunct when no column statistics apply: equality 1/10, range 1/3,
// anything else 1/2. These are the crude-but-serviceable defaults the
// README documents; they only matter for expressions too complex for
// the zone-map/HLL path.
func filterConjSel(e plan.Expr) float64 {
	switch x := e.(type) {
	case *plan.BinOp:
		switch x.Op {
		case sql.OpEq:
			return 0.1
		case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return 1.0 / 3
		case sql.OpNe:
			return 0.9
		case sql.OpOr:
			return 0.75
		}
	case *plan.IsNull:
		if x.Negate {
			return 0.9
		}
		return 0.1
	case *plan.In:
		return math.Min(1, 0.1*math.Max(1, float64(len(x.List))))
	}
	return 0.5
}
