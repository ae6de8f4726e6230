package plan

import (
	"fmt"
	"strings"

	"vexdb/internal/catalog"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// bindAggregate builds an Aggregate node plus the post-aggregation
// projection (and HAVING filter). Select items and HAVING bind over the
// aggregate's output (a grouped scope): a GROUP BY expression or an
// aggregate call is its output column, and anything else is built over
// those.
func (b *Binder) bindAggregate(sel *sql.Select, items []sql.SelectItem, child Node, sc *scope, like catalog.Schema) (*Project, error) {
	agg := &Aggregate{Child: child}
	out := &scope{agg: agg, in: sc}
	for _, g := range sel.GroupBy {
		bg, err := b.bindTyped(g, sc, vector.Float64)
		if err != nil {
			return nil, fmt.Errorf("in GROUP BY: %w", err)
		}
		name := ExprString(bg)
		if cr, ok := g.(*sql.ColumnRef); ok {
			name = cr.Name
		}
		agg.GroupBy = append(agg.GroupBy, bg)
		agg.GroupNames = append(agg.GroupNames, name)
		out.add("", name, bg.Type())
		out.keys = append(out.keys, g)
	}
	p, err := b.bindItems(items, out, like, agg)
	if err != nil {
		return nil, err
	}
	if sel.Having != nil {
		pred, err := b.bindPredicate(sel.Having, out)
		if err != nil {
			return nil, fmt.Errorf("in HAVING: %w", err)
		}
		switch {
		case IsFalse(pred):
			p.Child = emptyOf(agg.Schema()) // a FALSE HAVING reads nothing, as a FALSE WHERE
		case pred != nil:
			p.Child = &Filter{Pred: pred, Child: agg}
		}
	}
	return p, nil
}

func (b *Binder) bindAggCall(fc *sql.FuncCall, sc *scope) (AggSpec, error) {
	var kind AggKind
	switch fc.Name {
	case "count":
		kind = AggCount
	case "sum":
		kind = AggSum
	case "avg":
		kind = AggAvg
	case "min":
		kind = AggMin
	case "max":
		kind = AggMax
	default:
		return AggSpec{}, fmt.Errorf("plan: unknown aggregate %q", fc.Name)
	}
	spec := AggSpec{Kind: kind, Distinct: fc.Distinct}
	if fc.Star {
		if kind != AggCount {
			return AggSpec{}, fmt.Errorf("plan: %s(*) is not valid", fc.Name)
		}
		spec.Typ = vector.Int64
		spec.Name = fc.Name + "(*)"
		return spec, nil
	}
	if len(fc.Args) != 1 {
		return AggSpec{}, fmt.Errorf("plan: aggregate %s takes one argument", fc.Name)
	}
	arg, err := b.bindTyped(fc.Args[0], sc, vector.Float64)
	if err != nil {
		return AggSpec{}, err
	}
	spec.Arg = arg
	distinct := ""
	if fc.Distinct {
		distinct = "DISTINCT "
	}
	spec.Name = fmt.Sprintf("%s(%s%s)", fc.Name, distinct, ExprString(arg))
	switch kind {
	case AggCount:
		spec.Typ = vector.Int64
	case AggAvg:
		if !arg.Type().IsNumeric() {
			return AggSpec{}, fmt.Errorf("plan: avg requires a numeric argument, got %s", arg.Type())
		}
		spec.Typ = vector.Float64
	case AggSum:
		switch arg.Type() {
		case vector.Int32, vector.Int64:
			spec.Typ = vector.Int64
		case vector.Float64:
			spec.Typ = vector.Float64
		default:
			return AggSpec{}, fmt.Errorf("plan: sum requires a numeric argument, got %s", arg.Type())
		}
	case AggMin, AggMax:
		spec.Typ = arg.Type()
	}
	return spec, nil
}

// eqExpr reports structural equality of two AST expressions.
func eqExpr(a, b sql.Expr) bool {
	switch x := a.(type) {
	case *sql.Literal:
		y, ok := b.(*sql.Literal)
		if !ok {
			return false
		}
		if x.Value.IsNull() || y.Value.IsNull() {
			return x.Value.IsNull() && y.Value.IsNull()
		}
		return x.Value.Equal(y.Value)
	case *sql.ColumnRef:
		y, ok := b.(*sql.ColumnRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Name, y.Name)
	case *sql.BinaryExpr:
		y, ok := b.(*sql.BinaryExpr)
		return ok && x.Op == y.Op && eqExpr(x.Left, y.Left) && eqExpr(x.Right, y.Right)
	case *sql.UnaryExpr:
		y, ok := b.(*sql.UnaryExpr)
		return ok && x.Neg == y.Neg && eqExpr(x.Operand, y.Operand)
	case *sql.IsNullExpr:
		y, ok := b.(*sql.IsNullExpr)
		return ok && x.Negate == y.Negate && eqExpr(x.Operand, y.Operand)
	case *sql.CastExpr:
		y, ok := b.(*sql.CastExpr)
		return ok && x.To == y.To && eqExpr(x.Operand, y.Operand)
	case *sql.FuncCall:
		y, ok := b.(*sql.FuncCall)
		if !ok || x.Name != y.Name || x.Star != y.Star || x.Distinct != y.Distinct || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !eqExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *sql.CaseExpr:
		y, ok := b.(*sql.CaseExpr)
		if !ok || len(x.Whens) != len(y.Whens) {
			return false
		}
		if (x.Operand == nil) != (y.Operand == nil) || (x.Else == nil) != (y.Else == nil) {
			return false
		}
		if x.Operand != nil && !eqExpr(x.Operand, y.Operand) {
			return false
		}
		for i := range x.Whens {
			if !eqExpr(x.Whens[i].Cond, y.Whens[i].Cond) || !eqExpr(x.Whens[i].Then, y.Whens[i].Then) {
				return false
			}
		}
		if x.Else != nil && !eqExpr(x.Else, y.Else) {
			return false
		}
		return true
	case *sql.InExpr:
		y, ok := b.(*sql.InExpr)
		if !ok || x.Negate != y.Negate || len(x.List) != len(y.List) || !eqExpr(x.Operand, y.Operand) {
			return false
		}
		for i := range x.List {
			if !eqExpr(x.List[i], y.List[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// bindOrderByHidden binds ORDER BY keys against the projection output
// (by alias/name, 1-based position, bare column name for qualified
// references, or an expression equal to a select item, such as an
// aggregate call). Keys that only exist in the pre-projection input are
// appended to the projection as hidden sort columns, unless
// noHidden forbids it (DISTINCT or aggregation). It returns the number
// of hidden columns added.
func (b *Binder) bindOrderByHidden(orderBy []sql.OrderItem, items []sql.SelectItem, node Node, outNames []string, inScope *scope, noHidden bool) ([]SortKey, int, error) {
	proj, isProj := node.(*Project)
	outSchema := node.Schema()
	outScope := &scope{}
	for i, c := range outSchema {
		name := c.Name
		if i < len(outNames) {
			name = outNames[i]
		}
		outScope.add("", name, c.Type)
	}
	outCol := func(i int) Expr {
		return &ColRef{Idx: i, Typ: outSchema[i].Type, Name: outSchema[i].Name}
	}
	hidden := 0
	keys := make([]SortKey, 0, len(orderBy))
	for _, oi := range orderBy {
		// Positional reference: ORDER BY 2
		if lit, ok := oi.Expr.(*sql.Literal); ok && lit.Value.Type() == vector.Int64 {
			pos := int(lit.Value.Int64())
			if pos < 1 || pos > len(outSchema) {
				return nil, 0, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			keys = append(keys, SortKey{Expr: outCol(pos - 1), Desc: oi.Desc})
			continue
		}
		expr := oi.Expr
		bound, err := b.bindTyped(expr, outScope, vector.Float64)
		if err != nil {
			// Qualified references fall back to the bare column name
			// (ORDER BY t.a when the projection exposes "a").
			if cr, ok := expr.(*sql.ColumnRef); ok && cr.Table != "" {
				if bb, err2 := b.bindTyped(&sql.ColumnRef{Name: cr.Name}, outScope, vector.Float64); err2 == nil {
					bound, err = bb, nil
				}
			}
		}
		for i := range items {
			if err != nil && eqExpr(expr, items[i].Expr) {
				bound, err = outCol(i), nil
			}
		}
		if err != nil {
			// Try the pre-projection input and add a hidden column.
			if noHidden || !isProj {
				return nil, 0, fmt.Errorf("in ORDER BY: %w", err)
			}
			inBound, err2 := b.bindTyped(expr, inScope, vector.Float64)
			if err2 != nil {
				return nil, 0, fmt.Errorf("in ORDER BY: %w", err)
			}
			idx := len(proj.Exprs)
			name := fmt.Sprintf("#sort%d", hidden)
			proj.Exprs = append(proj.Exprs, inBound)
			proj.Names = append(proj.Names, name)
			hidden++
			bound = &ColRef{Idx: idx, Typ: inBound.Type(), Name: name}
		}
		keys = append(keys, SortKey{Expr: bound, Desc: oi.Desc})
	}
	return keys, hidden, nil
}
