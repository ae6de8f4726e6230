package plan

import (
	"fmt"
	"strings"

	"vexdb/internal/catalog"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// bindAggregate builds an Aggregate node plus the post-aggregation
// projection (and HAVING filter). Select items must be group-by
// expressions, aggregates, or expressions over those.
func (b *Binder) bindAggregate(sel *sql.Select, items []sql.SelectItem, child Node, sc *scope) (*Project, []string, error) {
	agg := &Aggregate{Child: child}

	// Bind group-by expressions over the child scope.
	for _, g := range sel.GroupBy {
		bg, err := b.bindExpr(g, sc, false)
		if err != nil {
			return nil, nil, fmt.Errorf("in GROUP BY: %w", err)
		}
		name := ExprString(bg)
		if cr, ok := g.(*sql.ColumnRef); ok {
			name = cr.Name
		}
		agg.GroupBy = append(agg.GroupBy, bg)
		agg.GroupNames = append(agg.GroupNames, name)
	}

	// Collect aggregate calls from select items and HAVING.
	var aggCalls []*sql.FuncCall
	collect := func(e sql.Expr) error {
		return walkAggCalls(e, func(fc *sql.FuncCall) error {
			for _, existing := range aggCalls {
				if eqExpr(existing, fc) {
					return nil
				}
			}
			aggCalls = append(aggCalls, fc)
			return nil
		})
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, nil, err
		}
	}

	for i, fc := range aggCalls {
		spec, err := b.bindAggCall(fc, sc)
		if err != nil {
			return nil, nil, err
		}
		spec.Name = fmt.Sprintf("#agg%d", i)
		agg.Aggs = append(agg.Aggs, spec)
	}

	// The aggregate output scope: group columns then aggregate slots.
	aggSchema := agg.Schema()
	rewrite := func(e sql.Expr) (Expr, error) {
		return b.rewriteOverAgg(e, sel.GroupBy, aggCalls, aggSchema, sc)
	}

	var node Node = agg
	if sel.Having != nil {
		pred, err := rewrite(sel.Having)
		if err != nil {
			return nil, nil, fmt.Errorf("in HAVING: %w", err)
		}
		node = &Filter{Pred: pred, Child: node}
	}

	exprs := make([]Expr, len(items))
	names := make([]string, len(items))
	for i, it := range items {
		e, err := rewrite(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		exprs[i] = e
		names[i] = itemName(it, e)
	}
	return &Project{Exprs: exprs, Names: names, Child: node}, names, nil
}

// rewriteOverAgg rebinds an AST expression against the aggregate
// output: group-by expressions and aggregate calls become column
// references; anything else recurses; bare columns not in GROUP BY are
// errors.
func (b *Binder) rewriteOverAgg(e sql.Expr, groupBy []sql.Expr, aggCalls []*sql.FuncCall, aggSchema catalog.Schema, inScope *scope) (Expr, error) {
	for i, g := range groupBy {
		if eqExpr(e, g) {
			return &ColRef{Idx: i, Typ: aggSchema[i].Type, Name: aggSchema[i].Name}, nil
		}
	}
	if fc, ok := e.(*sql.FuncCall); ok && sql.AggregateNames[fc.Name] {
		for i, ac := range aggCalls {
			if eqExpr(fc, ac) {
				idx := len(groupBy) + i
				return &ColRef{Idx: idx, Typ: aggSchema[idx].Type, Name: aggSchema[idx].Name}, nil
			}
		}
		return nil, fmt.Errorf("plan: internal: aggregate %s not collected", fc.Name)
	}
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{Val: x.Value, Typ: literalType(x.Value)}, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", x.Name)
	case *sql.BinaryExpr:
		l, err := b.rewriteOverAgg(x.Left, groupBy, aggCalls, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		r, err := b.rewriteOverAgg(x.Right, groupBy, aggCalls, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		t, err := binOpType(x.Op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: x.Op, Left: l, Right: r, Typ: t}, nil
	case *sql.UnaryExpr:
		op, err := b.rewriteOverAgg(x.Operand, groupBy, aggCalls, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			return &Neg{Operand: op}, nil
		}
		return &Not{Operand: op}, nil
	case *sql.IsNullExpr:
		op, err := b.rewriteOverAgg(x.Operand, groupBy, aggCalls, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		return &IsNull{Operand: op, Negate: x.Negate}, nil
	case *sql.CastExpr:
		op, err := b.rewriteOverAgg(x.Operand, groupBy, aggCalls, aggSchema, inScope)
		if err != nil {
			return nil, err
		}
		return &Cast{Operand: op, To: x.To}, nil
	case *sql.CaseExpr:
		out := &Case{}
		var rt vector.Type
		whens := x.Whens
		if x.Operand != nil {
			whens = make([]sql.WhenClause, len(x.Whens))
			for i, w := range x.Whens {
				whens[i] = sql.WhenClause{
					Cond: &sql.BinaryExpr{Op: sql.OpEq, Left: x.Operand, Right: w.Cond},
					Then: w.Then,
				}
			}
		}
		for _, w := range whens {
			cond, err := b.rewriteOverAgg(w.Cond, groupBy, aggCalls, aggSchema, inScope)
			if err != nil {
				return nil, err
			}
			then, err := b.rewriteOverAgg(w.Then, groupBy, aggCalls, aggSchema, inScope)
			if err != nil {
				return nil, err
			}
			rt = mergeCaseType(rt, then.Type())
			out.Whens = append(out.Whens, When{Cond: cond, Then: then})
		}
		if x.Else != nil {
			els, err := b.rewriteOverAgg(x.Else, groupBy, aggCalls, aggSchema, inScope)
			if err != nil {
				return nil, err
			}
			rt = mergeCaseType(rt, els.Type())
			out.Else = els
		}
		if rt == vector.Invalid {
			rt = vector.String
		}
		out.Typ = rt
		return out, nil
	case *sql.FuncCall:
		fn, ok := b.Registry.Scalar(x.Name)
		if !ok {
			return nil, fmt.Errorf("plan: function %q is not registered", x.Name)
		}
		args := make([]Expr, len(x.Args))
		types := make([]vector.Type, len(x.Args))
		for i, a := range x.Args {
			ba, err := b.rewriteOverAgg(a, groupBy, aggCalls, aggSchema, inScope)
			if err != nil {
				return nil, err
			}
			args[i] = ba
			types[i] = ba.Type()
		}
		rt, err := fn.ReturnType(types)
		if err != nil {
			return nil, err
		}
		return &Call{Fn: fn, Args: args, Typ: rt}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T after aggregation", e)
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
		return spec, nil
	}
	if len(fc.Args) != 1 {
		return AggSpec{}, fmt.Errorf("plan: aggregate %s takes one argument", fc.Name)
	}
	arg, err := b.bindExpr(fc.Args[0], sc, false)
	if err != nil {
		return AggSpec{}, err
	}
	if c, ok := arg.(*Const); ok && c.Typ == vector.Invalid {
		// A bare NULL has no type for the state and output columns to
		// take: it is a DOUBLE NULL, so sum, avg, min and max of it are
		// DOUBLE NULLs and its count is 0.
		arg = &Const{Val: c.Val, Typ: vector.Float64}
	}
	spec.Arg = arg
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

func walkAggCalls(e sql.Expr, fn func(*sql.FuncCall) error) error {
	switch x := e.(type) {
	case *sql.FuncCall:
		if sql.AggregateNames[x.Name] {
			for _, a := range x.Args {
				if sql.IsAggregate(a) {
					return fmt.Errorf("plan: nested aggregates are not allowed")
				}
			}
			return fn(x)
		}
		for _, a := range x.Args {
			if err := walkAggCalls(a, fn); err != nil {
				return err
			}
		}
	case *sql.BinaryExpr:
		if err := walkAggCalls(x.Left, fn); err != nil {
			return err
		}
		return walkAggCalls(x.Right, fn)
	case *sql.UnaryExpr:
		return walkAggCalls(x.Operand, fn)
	case *sql.IsNullExpr:
		return walkAggCalls(x.Operand, fn)
	case *sql.CastExpr:
		return walkAggCalls(x.Operand, fn)
	case *sql.CaseExpr:
		if x.Operand != nil {
			if err := walkAggCalls(x.Operand, fn); err != nil {
				return err
			}
		}
		for _, w := range x.Whens {
			if err := walkAggCalls(w.Cond, fn); err != nil {
				return err
			}
			if err := walkAggCalls(w.Then, fn); err != nil {
				return err
			}
		}
		if x.Else != nil {
			return walkAggCalls(x.Else, fn)
		}
	case *sql.InExpr:
		if err := walkAggCalls(x.Operand, fn); err != nil {
			return err
		}
		for _, i := range x.List {
			if err := walkAggCalls(i, fn); err != nil {
				return err
			}
		}
	}
	return nil
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
// (by alias/name, 1-based position, or bare column name for qualified
// references). Keys that only exist in the pre-projection input are
// appended to the projection as hidden sort columns, unless
// noHidden forbids it (DISTINCT or aggregation). It returns the number
// of hidden columns added.
func (b *Binder) bindOrderByHidden(orderBy []sql.OrderItem, node Node, outNames []string, inScope *scope, noHidden bool) ([]SortKey, int, error) {
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
	hidden := 0
	keys := make([]SortKey, 0, len(orderBy))
	for _, oi := range orderBy {
		// Positional reference: ORDER BY 2
		if lit, ok := oi.Expr.(*sql.Literal); ok && lit.Value.Type() == vector.Int64 {
			pos := int(lit.Value.Int64())
			if pos < 1 || pos > len(outSchema) {
				return nil, 0, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			keys = append(keys, SortKey{
				Expr: &ColRef{Idx: pos - 1, Typ: outSchema[pos-1].Type, Name: outSchema[pos-1].Name},
				Desc: oi.Desc,
			})
			continue
		}
		expr := oi.Expr
		bound, err := b.bindExpr(expr, outScope, false)
		if err != nil {
			// Qualified references fall back to the bare column name
			// (ORDER BY t.a when the projection exposes "a").
			if cr, ok := expr.(*sql.ColumnRef); ok && cr.Table != "" {
				if bb, err2 := b.bindExpr(&sql.ColumnRef{Name: cr.Name}, outScope, false); err2 == nil {
					bound, err = bb, nil
				}
			}
		}
		if err != nil {
			// Try the pre-projection input and add a hidden column.
			if noHidden || !isProj {
				return nil, 0, fmt.Errorf("in ORDER BY: %w", err)
			}
			inBound, err2 := b.bindExpr(expr, inScope, false)
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
