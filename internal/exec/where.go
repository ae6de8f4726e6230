package exec

import (
	"fmt"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// Where is a WHERE predicate compiled once for every chunk it filters.
// Its conjuncts of the form `column <op> constant` (plan.SplitFilter)
// run as typed selection kernels that narrow one selection vector in
// place — no constant vector, no bool vector, no AND vector. The other
// conjuncts, the residual, are evaluated over the whole chunk, so a
// query that raises an error on some row still raises it when a kernel
// rejects that row.
type Where struct {
	kernels  []plan.ScanPredicate
	residual []plan.Expr
}

// CompileWhere compiles pred; a nil pred keeps every row.
func CompileWhere(pred plan.Expr) *Where {
	kernels, residual := plan.SplitFilter(pred)
	return &Where{kernels: kernels, residual: residual}
}

// Select returns the rows of ch where the predicate is TRUE, in
// ascending order, in sel's storage.
func (w *Where) Select(ch *vector.Chunk, sel []int) ([]int, error) {
	n := ch.NumRows()
	if n == 0 {
		return sel[:0], nil
	}
	if cap(sel) < n {
		sel = make([]int, n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = i
	}
	for _, k := range w.kernels {
		var err error
		if sel, err = keep(sel, ch.Col(k.Col), k.Op, k.Val); err != nil {
			return nil, err
		}
	}
	for _, e := range w.residual {
		pv, err := Evaluate(e, ch)
		if err != nil {
			return nil, err
		}
		if pv.Type() != vector.Bool {
			return nil, fmt.Errorf("exec: WHERE predicate must be boolean, got %s", pv.Type())
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
		return keepStrings(sel, col.Strings(), op, c.Str()), nil
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

// keepStrings is keepNumbers for VARCHAR.
func keepStrings(sel []int, col []string, op sql.BinaryOp, c string) []int {
	k := 0
	for _, r := range sel {
		if cmpToBool(op, compareString(col[r], c)) {
			sel[k] = r
			k++
		}
	}
	return sel[:k]
}
