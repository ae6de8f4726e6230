package plan

import (
	"errors"
	"fmt"
	"strings"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// Binder resolves a parsed SELECT against a catalog and UDF registry,
// producing a bound plan.
type Binder struct {
	Catalog  *catalog.Catalog
	Registry *core.Registry
}

// NewBinder returns a binder over the given catalog and registry.
func NewBinder(cat *catalog.Catalog, reg *core.Registry) *Binder {
	return &Binder{Catalog: cat, Registry: reg}
}

// scope maps visible (qualifier, column) pairs to chunk positions.
// Above GROUP BY (agg set) it is the output of agg over the scope in:
// keys[i], a GROUP BY expression or an aggregate call, is column i. An
// aggregate call not among them yet is bound over in and added to agg;
// a column reference that is none of them is an error.
type scope struct {
	cols []scopeCol
	keys []sql.Expr
	agg  *Aggregate
	in   *scope
}

type scopeCol struct {
	qual string // table alias, lower-cased; "" when anonymous
	name string // column name as stored
	typ  vector.Type
}

func (s *scope) add(qual, name string, typ vector.Type) {
	s.cols = append(s.cols, scopeCol{qual: strings.ToLower(qual), name: name, typ: typ})
}

// resolve finds the position of a (possibly qualified) column name.
func (s *scope) resolve(qual, name string) (int, vector.Type, error) {
	qual = strings.ToLower(qual)
	found := -1
	var typ vector.Type
	for i, c := range s.cols {
		if qual != "" && c.qual != qual {
			continue
		}
		if strings.EqualFold(c.name, name) {
			if found >= 0 {
				return 0, vector.Invalid, fmt.Errorf("plan: ambiguous column %q", name)
			}
			found = i
			typ = c.typ
		}
	}
	if found < 0 {
		if qual != "" {
			return 0, vector.Invalid, fmt.Errorf("plan: column %q.%q not found", qual, name)
		}
		return 0, vector.Invalid, fmt.Errorf("plan: column %q not found", name)
	}
	return found, typ, nil
}

// BindSelect binds a SELECT statement into a plan node.
func (b *Binder) BindSelect(sel *sql.Select) (Node, error) {
	node, sc, err := b.bindFromClause(sel)
	if err != nil {
		return nil, err
	}

	if sel.Where != nil {
		pred, err := b.bindPredicate(sel.Where, sc)
		if err != nil {
			return nil, fmt.Errorf("in WHERE: %w", err)
		}
		switch {
		case pred == nil:
		case IsFalse(pred):
			node = emptyOf(node.Schema())
		default:
			if j, ok := node.(*HashJoin); ok {
				pred = pushWhere(j, pred)
			}
			if pred != nil {
				node = &Filter{Pred: pred, Child: node}
			}
		}
	}

	items, err := b.expandStars(sel.Items, sc)
	if err != nil {
		return nil, err
	}

	var right Node
	var like catalog.Schema // an untyped select-list column takes its type here
	if sel.Union != nil {
		if right, err = b.BindSelect(sel.Union); err != nil {
			return nil, err
		}
		like = right.Schema()
	}

	needAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	if !needAgg {
		for _, it := range items {
			if sql.IsAggregate(it.Expr) {
				needAgg = true
				break
			}
		}
	}

	var projNode *Project
	if needAgg {
		projNode, err = b.bindAggregate(sel, items, node, sc, like)
	} else {
		projNode, err = b.bindItems(items, sc, like, node)
	}
	if err != nil {
		return nil, err
	}
	outNames := projNode.Names
	node = projNode

	if sel.Distinct {
		node = &Distinct{Child: node}
	}

	if right != nil {
		if len(right.Schema()) != len(node.Schema()) {
			return nil, fmt.Errorf("plan: UNION arms have %d and %d columns", len(node.Schema()), len(right.Schema()))
		}
		return &Union{Left: node, Right: right, All: sel.UnionAll}, nil
	}

	if len(sel.OrderBy) > 0 {
		keys, hidden, err := b.bindOrderByHidden(sel.OrderBy, items, node, outNames, sc, needAgg || sel.Distinct)
		if err != nil {
			return nil, err
		}
		node = &Sort{Keys: keys, Child: node}
		if hidden > 0 {
			// Trim the hidden sort columns appended to the projection.
			schema := node.Schema()
			keep := len(schema) - hidden
			exprs := make([]Expr, keep)
			names := make([]string, keep)
			for i := 0; i < keep; i++ {
				exprs[i] = &ColRef{Idx: i, Typ: schema[i].Type, Name: schema[i].Name}
				names[i] = schema[i].Name
			}
			node = &Project{Exprs: exprs, Names: names, Child: node}
		}
	}

	if sel.Limit != nil || sel.Offset != nil {
		count := int64(-1)
		offset := int64(0)
		if sel.Limit != nil {
			v, err := b.constInt(sel.Limit)
			if err != nil {
				return nil, fmt.Errorf("in LIMIT: %w", err)
			}
			count = v
		}
		if sel.Offset != nil {
			v, err := b.constInt(sel.Offset)
			if err != nil {
				return nil, fmt.Errorf("in OFFSET: %w", err)
			}
			offset = v
		}
		// The executor treats a negative OFFSET as "skip nothing";
		// clamp before deriving the hint so the merge never stops
		// short of the rows the Limit operator will emit.
		hintOff := offset
		if hintOff < 0 {
			hintOff = 0
		}
		if count >= 0 && hintOff+count > 0 {
			// Push the bound into a directly enclosed Sort (possibly
			// behind the hidden-column trim projection): any consumer
			// observes at most offset+count ordered rows, so a
			// parallel merge may stop early. LIMIT 0 needs no hint —
			// the Limit node already emits nothing.
			pushSortLimit(node, hintOff+count)
		}
		node = &Limit{Count: count, Offset: offset, Child: node}
	}
	return node, nil
}

// bindItems binds a select list over child. A column is named before
// its constants fold, so SELECT 1 + 2 is still "(1 + 2)". An untyped
// column takes the type of the column at its position in like (the
// other UNION arm) when there is one, else VARCHAR, as PostgreSQL
// resolves an untyped literal to text.
func (b *Binder) bindItems(items []sql.SelectItem, sc *scope, like catalog.Schema, child Node) (*Project, error) {
	p := &Project{Exprs: make([]Expr, len(items)), Names: make([]string, len(items)), Child: child}
	for i, it := range items {
		e, err := b.bindExpr(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		t := vector.String
		if i < len(like) {
			t = like[i].Type
		}
		p.Names[i] = itemName(it, e)
		p.Exprs[i] = fold(settle(e, t))
	}
	return p, nil
}

// emptyOf is a relation of schema with no rows: the input of a WHERE
// that is FALSE, which reads nothing.
func emptyOf(schema catalog.Schema) *Material {
	cols := make([]*vector.Vector, len(schema))
	for i, c := range schema {
		cols[i] = vector.New(c.Type, 0)
	}
	return &Material{Data: &vector.Table{Names: schema.Names(), Cols: cols}, Schem: schema}
}

// pushSortLimit annotates the Sort directly under node (through 1:1
// row-preserving projections only) with the row bound an enclosing
// LIMIT imposes.
func pushSortLimit(node Node, limit int64) {
	for {
		switch n := node.(type) {
		case *Sort:
			if n.Limit <= 0 || limit < n.Limit {
				n.Limit = limit
			}
			return
		case *Project:
			node = n.Child
		default:
			return
		}
	}
}

func (b *Binder) bindFromClause(sel *sql.Select) (Node, *scope, error) {
	if sel.From == nil {
		// FROM-less SELECT: a single dummy row with an empty scope.
		dummy := vector.FromInt32s([]int32{0})
		tab, err := vector.NewTable([]string{"__dummy"}, []*vector.Vector{dummy})
		if err != nil {
			return nil, nil, err
		}
		m := &Material{Data: tab, Schem: catalog.Schema{{Name: "__dummy", Type: vector.Int32}}}
		return m, &scope{}, nil
	}
	node, sc, err := b.bindTableRef(sel.From)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range sel.Joins {
		rnode, rsc, err := b.bindTableRef(j.Src)
		if err != nil {
			return nil, nil, err
		}
		combined := &scope{cols: append(append([]scopeCol{}, sc.cols...), rsc.cols...)}
		join := &HashJoin{Kind: j.Kind, Left: node, Right: rnode}
		if j.On != nil {
			var extras []Expr
			for _, c := range splitAnd(j.On) {
				if lk, rk, ok := b.tryBindEquiKey(c, sc, rsc); ok {
					join.LeftKeys = append(join.LeftKeys, lk)
					join.RightKeys = append(join.RightKeys, rk)
					continue
				}
				pred, err := b.bindPredicate(c, combined)
				if err != nil {
					return nil, nil, fmt.Errorf("in ON: %w", err)
				}
				extras = append(extras, pred)
			}
			join.Extra = simplifyAnd(AndAll(extras))
		}
		node = join
		sc = combined
	}
	return node, sc, nil
}

func splitAnd(e sql.Expr) []sql.Expr {
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []sql.Expr{e}
}

// tryBindEquiKey recognizes conjuncts of the form l = r where one side
// reads columns of the left scope only and the other of the right; 1 = 0
// is no key but a conjunct of Extra, which simplifyAnd settles.
func (b *Binder) tryBindEquiKey(c sql.Expr, left, right *scope) (Expr, Expr, bool) {
	be, ok := c.(*sql.BinaryExpr)
	if !ok || be.Op != sql.OpEq {
		return nil, nil, false
	}
	reads := func(e Expr) (found bool) {
		EachColRef(e, func(*ColRef) { found = true })
		return found
	}
	for _, sides := range [2][2]sql.Expr{{be.Left, be.Right}, {be.Right, be.Left}} {
		if lk, err := b.bindExpr(sides[0], left); err == nil && reads(lk) {
			if rk, err := b.bindExpr(sides[1], right); err == nil && reads(rk) {
				ks := settleLike(lk, rk)
				return fold(ks[0]), fold(ks[1]), true
			}
		}
	}
	return nil, nil, false
}

func (b *Binder) bindTableRef(ref sql.TableRef) (Node, *scope, error) {
	switch r := ref.(type) {
	case *sql.BaseTable:
		tab, err := b.Catalog.Table(r.Name)
		if err != nil {
			return nil, nil, err
		}
		qual := r.Alias
		if qual == "" {
			qual = r.Name
		}
		sc := &scope{}
		for _, c := range tab.Schema {
			sc.add(qual, c.Name, c.Type)
		}
		return &Scan{Table: tab}, sc, nil
	case *sql.SubqueryTable:
		node, err := b.BindSelect(r.Query)
		if err != nil {
			return nil, nil, err
		}
		sc := &scope{}
		for _, c := range node.Schema() {
			sc.add(r.Alias, c.Name, c.Type)
		}
		return node, sc, nil
	case *sql.TableFunc:
		fn, ok := b.Registry.Table(r.Name)
		if !ok {
			return nil, nil, fmt.Errorf("plan: table function %q is not registered", r.Name)
		}
		tfs := &TableFuncScan{Fn: fn}
		for i, a := range r.Args {
			if a.Query != nil {
				sub, err := b.BindSelect(a.Query)
				if err != nil {
					return nil, nil, fmt.Errorf("argument %d of %s: %w", i+1, r.Name, err)
				}
				tfs.Args = append(tfs.Args, FuncArg{Sub: sub})
				continue
			}
			ce, err := b.BindConst(a.Expr)
			if err != nil {
				return nil, nil, fmt.Errorf("argument %d of %s must be constant: %w", i+1, r.Name, err)
			}
			tfs.Args = append(tfs.Args, FuncArg{ConstExpr: ce})
		}
		qual := r.Alias
		if qual == "" {
			qual = r.Name
		}
		sc := &scope{}
		for _, c := range fn.Columns {
			sc.add(qual, c.Name, c.Type)
		}
		return tfs, sc, nil
	}
	return nil, nil, fmt.Errorf("plan: unsupported table reference %T", ref)
}

func (b *Binder) expandStars(items []sql.SelectItem, sc *scope) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range sc.cols {
			if it.StarTable != "" && c.qual != strings.ToLower(it.StarTable) {
				continue
			}
			matched = true
			ref := &sql.ColumnRef{Name: c.name}
			if c.qual != "" {
				ref.Table = c.qual
			}
			out = append(out, sql.SelectItem{Expr: ref})
		}
		if !matched {
			if it.StarTable != "" {
				return nil, fmt.Errorf("plan: unknown table %q in %s.*", it.StarTable, it.StarTable)
			}
			return nil, fmt.Errorf("plan: SELECT * with no input columns")
		}
	}
	return out, nil
}

// itemName names an unaliased select-list column: by its column, by
// its function for a bare aggregate, as PostgreSQL does, else by its
// bound expression.
func itemName(it sql.SelectItem, bound Expr) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch x := it.Expr.(type) {
	case *sql.ColumnRef:
		return x.Name
	case *sql.FuncCall:
		if sql.AggregateNames[x.Name] {
			return x.Name
		}
	}
	return ExprString(bound)
}

// constInt binds a LIMIT or OFFSET, which must fold to an integer.
func (b *Binder) constInt(e sql.Expr) (int64, error) {
	x, err := b.BindConst(e)
	if err != nil {
		return 0, err
	}
	c, ok := x.(*Const)
	if !ok || c.Val.IsNull() || (c.Typ != vector.Int64 && c.Typ != vector.Int32) {
		return 0, fmt.Errorf("expected an integer constant, got %s", ExprString(x))
	}
	return c.Val.Int64(), nil
}

// noColumns is the scope of a constant: it resolves no column.
var noColumns scope

// BindConst binds an expression that must be a constant, such as a
// VALUES cell or a scalar table-function argument: it sees no columns,
// so a column reference is not found, and an aggregate is refused as
// anywhere outside a grouped select list. Anything but a scalar
// function call folds to a *Const.
func (b *Binder) BindConst(e sql.Expr) (Expr, error) {
	return b.bindTyped(e, &noColumns, vector.Float64)
}

// bindTyped binds a whole expression in a context that types an
// untyped result as t (see settle) and folds its constant subtrees.
func (b *Binder) bindTyped(e sql.Expr, sc *scope, t vector.Type) (Expr, error) {
	x, err := b.bindExpr(e, sc)
	if err != nil {
		return nil, err
	}
	return fold(settle(x, t)), nil
}

// bindPredicate binds a WHERE, HAVING or ON predicate or a CASE
// condition: BOOLEAN where it is untyped, and simplified (simplifyAnd).
func (b *Binder) bindPredicate(e sql.Expr, sc *scope) (Expr, error) {
	pred, err := b.bindExpr(e, sc)
	if err == nil {
		pred, err = boolean(pred, "a predicate")
	}
	if err != nil {
		return nil, err
	}
	return simplifyAnd(fold(pred)), nil
}

// ErrNotBoolean is the bind error, as in PostgreSQL, of a predicate, an
// AND, OR or NOT operand or a CASE condition of another type.
var ErrNotBoolean = errors.New("must be BOOLEAN")

// boolean settles e, one of those, to BOOLEAN or rejects it as what.
func boolean(e Expr, what string) (Expr, error) {
	if e = settle(e, vector.Bool); e.Type() != vector.Bool {
		return nil, fmt.Errorf("plan: %s %w, not %s", what, ErrNotBoolean, e.Type())
	}
	return e, nil
}

// bindExpr binds a scalar expression against a scope. Each operand an
// operator gives a context is settled to it; the result itself stays
// untyped (vector.Invalid) when it is a NULL, or a CASE of NULLs, for
// the caller's context to settle.
func (b *Binder) bindExpr(e sql.Expr, sc *scope) (Expr, error) {
	if sc.agg != nil {
		for i, k := range sc.keys {
			if eqExpr(e, k) {
				c := sc.cols[i]
				return &ColRef{Idx: i, Typ: c.typ, Name: c.name}, nil
			}
		}
	}
	switch x := e.(type) {
	case *sql.Literal:
		v := x.Value
		if v.Type() == vector.String && !v.IsNull() {
			// The lexer slices a literal from its statement's text: the
			// bound value gets bytes of its own, so a row it is stored in
			// does not keep the statement alive.
			v = vector.NewString(strings.Clone(v.Str()))
		}
		return &Const{Val: v, Typ: v.Type()}, nil
	case *sql.ColumnRef:
		if sc.agg != nil {
			return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", x.Name)
		}
		idx, typ, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &ColRef{Idx: idx, Typ: typ, Name: x.Name}, nil
	case *sql.BinaryExpr:
		l, err := b.bindExpr(x.Left, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.Right, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case sql.OpAnd, sql.OpOr:
			if l, err = boolean(l, "an operand of "+x.Op.String()); err == nil {
				r, err = boolean(r, "an operand of "+x.Op.String())
			}
			if err != nil {
				return nil, err
			}
		case sql.OpConcat:
			l, r = settle(l, vector.String), settle(r, vector.String)
		default:
			lr := settleLike(l, r)
			l, r = lr[0], lr[1]
		}
		t, err := binOpType(x.Op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: x.Op, Left: l, Right: r, Typ: t}, nil
	case *sql.UnaryExpr:
		op, err := b.bindExpr(x.Operand, sc)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			op = settle(op, vector.Float64)
			if !op.Type().IsNumeric() {
				return nil, fmt.Errorf("plan: unary minus on %s", op.Type())
			}
			return &Neg{Operand: op}, nil
		}
		if op, err = boolean(op, "the operand of NOT"); err != nil {
			return nil, err
		}
		return &Not{Operand: op}, nil
	case *sql.IsNullExpr:
		op, err := b.bindExpr(x.Operand, sc)
		if err != nil {
			return nil, err
		}
		return &IsNull{Operand: settle(op, vector.Float64), Negate: x.Negate}, nil
	case *sql.CastExpr:
		op, err := b.bindExpr(x.Operand, sc)
		if err != nil {
			return nil, err
		}
		return &Cast{Operand: settle(op, x.To), To: x.To}, nil
	case *sql.InExpr:
		all := make([]Expr, 1+len(x.List)) // the operand, then the list
		for i, a := range append([]sql.Expr{x.Operand}, x.List...) {
			var err error
			if all[i], err = b.bindExpr(a, sc); err != nil {
				return nil, err
			}
		}
		all = settleLike(all...)
		return &In{Operand: all[0], List: all[1:], Negate: x.Negate}, nil
	case *sql.CaseExpr:
		return b.bindCase(x, sc)
	case *sql.FuncCall:
		if sql.AggregateNames[x.Name] {
			if sc.agg == nil {
				return nil, fmt.Errorf("plan: aggregate %s not allowed here", x.Name)
			}
			spec, err := b.bindAggCall(x, sc.in)
			if err != nil {
				return nil, err
			}
			sc.agg.Aggs = append(sc.agg.Aggs, spec)
			sc.add("", spec.Name, spec.Typ)
			sc.keys = append(sc.keys, x)
			return &ColRef{Idx: len(sc.cols) - 1, Typ: spec.Typ, Name: spec.Name}, nil
		}
		fn, ok := b.Registry.Scalar(x.Name)
		if !ok {
			return nil, fmt.Errorf("plan: function %q is not registered", x.Name)
		}
		if fn.Arity >= 0 && fn.Arity != len(x.Args) {
			return nil, fmt.Errorf("plan: function %s expects %d arguments, got %d", x.Name, fn.Arity, len(x.Args))
		}
		args := make([]Expr, len(x.Args))
		types := make([]vector.Type, len(x.Args))
		for i, a := range x.Args {
			ba, err := b.bindExpr(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = settle(ba, vector.Float64)
			types[i] = args[i].Type()
		}
		rt, err := fn.ReturnType(types)
		if err != nil {
			return nil, fmt.Errorf("plan: function %s: %w", x.Name, err)
		}
		if rt == vector.Invalid {
			return nil, fmt.Errorf("plan: function %s returns no type", x.Name)
		}
		return &Call{Fn: fn, Args: args, Typ: rt}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}

func (b *Binder) bindCase(x *sql.CaseExpr, sc *scope) (Expr, error) {
	// Desugar simple CASE (CASE op WHEN v ...) into searched CASE.
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
	out := &Case{}
	var rt vector.Type
	for _, w := range whens {
		cond, err := b.bindPredicate(w.Cond, sc)
		if err != nil {
			return nil, err
		}
		if cond == nil { // every row passes
			cond = &Const{Val: vector.NewBool(true), Typ: vector.Bool}
		}
		then, err := b.bindExpr(w.Then, sc)
		if err != nil {
			return nil, err
		}
		rt = mergeCaseType(rt, then.Type())
		out.Whens = append(out.Whens, When{Cond: cond, Then: then})
	}
	if x.Else != nil {
		els, err := b.bindExpr(x.Else, sc)
		if err != nil {
			return nil, err
		}
		rt = mergeCaseType(rt, els.Type())
		out.Else = els
	}
	// Arms of NULL take the type of the others; a CASE of NULLs alone
	// stays untyped for its own context to settle.
	return settle(out, rt), nil
}

// mergeCaseType widens a CASE's result type acc (Invalid before the
// first typed arm) by one arm's type t.
func mergeCaseType(acc, t vector.Type) vector.Type {
	if acc == vector.Invalid {
		return t
	}
	if acc == t {
		return acc
	}
	if common, ok := vector.CommonNumeric(acc, t); ok {
		return common
	}
	return acc
}

// settle gives an untyped expression — a NULL, or a CASE whose arms are
// all NULLs — the type t of its context, the way PostgreSQL resolves an
// unknown literal; a typed expression, or t Invalid, leaves e as it is.
// The contexts are the other operand of an operator or comparison
// (settleLike), the other arms of CASE and IN, BOOLEAN under NOT, AND
// and OR and for a whole WHERE or HAVING, and a CAST's target. With no
// context, a select-list column is VARCHAR and anything else — an
// aggregate or function argument, an arithmetic operand — is DOUBLE.
func settle(e Expr, t vector.Type) Expr {
	if e.Type() != vector.Invalid || t == vector.Invalid {
		return e
	}
	switch x := e.(type) {
	case *Const:
		return &Const{Val: x.Val, Typ: t}
	case *Case:
		x.Typ = t
		for i := range x.Whens {
			x.Whens[i].Then = settle(x.Whens[i].Then, t)
		}
		if x.Else != nil {
			x.Else = settle(x.Else, t)
		}
	}
	return e
}

// settleLike settles the untyped expressions of es — the operands of
// a comparison or arithmetic, an IN's operand and list — to the type of
// the first typed one, or all to DOUBLE when none is typed.
func settleLike(es ...Expr) []Expr {
	t := vector.Float64
	for _, e := range es {
		if e.Type() != vector.Invalid {
			t = e.Type()
			break
		}
	}
	for i := range es {
		es[i] = settle(es[i], t)
	}
	return es
}

// fold replaces each column-free subtree of e by the *Const it
// evaluates to, bottom up, so each evaluates once, through Evaluate,
// the evaluator the executor runs. A scalar function call is never folded (a
// registered function need not be pure), nor is a subtree whose
// evaluation fails: that error is the statement's, raised when a row
// reaches it, as if nothing folded. A comparison with a NULL constant
// is NULL on every row, so it folds to a NULL BOOLEAN when its other
// side cannot raise (MayFail); comparisons are type-checked at bind, so
// the comparison itself never does.
func fold(e Expr) Expr {
	return mapExpr(e, func(x Expr) Expr {
		switch y := x.(type) {
		case *Const, *ColRef, *Call:
			return x
		case *BinOp:
			if comparesNull(y) {
				return &Const{Val: vector.Null(), Typ: vector.Bool}
			}
		}
		constant := true
		EachColRef(x, func(*ColRef) { constant = false })
		if !constant || !EachCall(x, func(*Call) bool { return false }) {
			return x
		}
		v, err := EvalConst(x)
		if err != nil {
			return x
		}
		return &Const{Val: v, Typ: x.Type()}
	})
}

// comparesNull reports whether b compares a NULL constant with an
// operand that cannot raise.
func comparesNull(b *BinOp) bool {
	switch b.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
	default:
		return false
	}
	isNull := func(e Expr) bool {
		c, ok := e.(*Const)
		return ok && c.Val.IsNull()
	}
	return isNull(b.Left) && !MayFail(b.Right) || isNull(b.Right) && !MayFail(b.Left)
}

// simplifyAnd simplifies a predicate's conjunction under three-valued
// logic, where a row passes only when every conjunct is TRUE: a TRUE
// conjunct goes, and a FALSE or NULL one makes the predicate FALSE. It
// returns nil for a predicate every row passes.
func simplifyAnd(pred Expr) Expr {
	var keep []Expr
	for _, c := range Conjuncts(pred) {
		k, ok := c.(*Const)
		switch {
		case !ok || k.Typ != vector.Bool:
			keep = append(keep, c)
		case k.Val.IsNull() || !k.Val.Bool():
			return &Const{Val: vector.NewBool(false), Typ: vector.Bool}
		}
	}
	return AndAll(keep)
}

// IsFalse reports whether a bound predicate is the constant FALSE.
func IsFalse(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.Typ == vector.Bool && !c.Val.IsNull() && !c.Val.Bool()
}

// Conjuncts flattens a predicate's AND tree, left to right (nil for a
// nil predicate).
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == sql.OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// SplitFilter splits a WHERE predicate into the conjuncts the executor
// runs as selection kernels and the residual, both in syntactic order.
// A kernel is `column <op> constant` or `constant <op> column` — any
// comparison, normalized with the column on the left — over a non-NULL
// constant, both sides numeric, both VARCHAR or both BOOLEAN. The
// executor compiles its filters from this split, tests the kernels of
// a filter fused into its scan against zone maps, and EXPLAIN prints
// it, so the three agree.
func SplitFilter(pred Expr) (kernels []ScanPredicate, residual []Expr) {
	for _, conj := range Conjuncts(pred) {
		col, op, c, ok := colOpConst(conj)
		if ok && !c.Val.IsNull() {
			ct, vt := col.Typ, c.Val.Type()
			if (ct.IsNumeric() && vt.IsNumeric()) || (ct == vt && (ct == vector.String || ct == vector.Bool)) {
				kernels = append(kernels, ScanPredicate{Col: col.Idx, Op: op, Val: c.Val})
				continue
			}
		}
		residual = append(residual, conj)
	}
	return kernels, residual
}

// colOpConst matches a comparison between a column and a constant in
// either order, returning it with the column on the left.
func colOpConst(e Expr) (*ColRef, sql.BinaryOp, *Const, bool) {
	b, ok := e.(*BinOp)
	if !ok {
		return nil, 0, nil, false
	}
	switch b.Op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
	default:
		return nil, 0, nil, false
	}
	if col, ok := b.Left.(*ColRef); ok {
		if c, ok := b.Right.(*Const); ok {
			return col, b.Op, c, true
		}
	}
	if c, ok := b.Left.(*Const); ok {
		if col, ok := b.Right.(*ColRef); ok {
			return col, flipCompare(b.Op), c, true
		}
	}
	return nil, 0, nil, false
}

// pushWhere places the kernel conjuncts (SplitFilter) of a WHERE over
// the join tree j as filters directly on the base-table scans owning
// their columns, where the executor fuses them into the scan and they
// skip the segments zone maps refute. It returns what stays above the
// join. A conjunct moves when the path to its scan crosses no LEFT
// join's right input: a row it rejects there only ever makes joined
// rows it rejects too. Under a LEFT join's right input a rejected row
// turns matches into NULL-padded rows instead, which the comparison
// rejects as well, so there the conjunct is copied and also stays
// above. Nothing is placed when any conjunct may raise (MayFail): the
// rows a placed conjunct rejects would no longer reach it, and whether
// the statement fails would depend on where the conjunct ran.
func pushWhere(j *HashJoin, pred Expr) Expr {
	conjs := Conjuncts(pred)
	for _, c := range conjs {
		if MayFail(c) {
			return pred
		}
	}
	var above []Expr
	for _, c := range conjs {
		if k, _ := SplitFilter(c); len(k) == 0 || !placeOnScan(j, c, k[0].Col) {
			above = append(above, c)
		}
	}
	return AndAll(above)
}

// placeOnScan puts kernel conjunct c, on column col of j's output, in
// a Filter directly over the base-table scan that owns the column, and
// reports whether it moved there: false when it was copied (under a
// LEFT join's right input) or not placed at all (the column belongs to
// a subquery or a table function).
func placeOnScan(j *HashJoin, c Expr, col int) bool {
	moved := true
	var at *Node
	for n := Node(j); ; n = *at {
		hj, ok := n.(*HashJoin)
		if !ok {
			break
		}
		if nl := len(hj.Left.Schema()); col < nl {
			at = &hj.Left
		} else {
			at, col = &hj.Right, col-nl
			moved = moved && hj.Kind != sql.LeftJoin
		}
	}
	local := MapColRefs(c, func(r *ColRef) Expr { return &ColRef{Idx: col, Typ: r.Typ, Name: r.Name} })
	switch n := (*at).(type) {
	case *Scan:
		*at = &Filter{Pred: local, Child: n}
		return moved
	case *Filter:
		if _, ok := n.Child.(*Scan); ok { // placed by an earlier conjunct
			n.Pred = AndAll([]Expr{n.Pred, local})
			return moved
		}
	}
	return false
}

// flipCompare mirrors a comparison for swapped operands
// (const <op> col  ==  col <flipped op> const).
func flipCompare(op sql.BinaryOp) sql.BinaryOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op
}
