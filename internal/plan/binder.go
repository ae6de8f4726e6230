package plan

import (
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
type scope struct {
	cols []scopeCol
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
		pred, err := b.bindExpr(sel.Where, sc, false)
		if err != nil {
			return nil, fmt.Errorf("in WHERE: %w", err)
		}
		// Single-table scans get the scan-eligible conjuncts pushed
		// down for zone-map pruning; under joins each conjunct routes
		// to the scan owning its column. The filter itself is
		// untouched either way.
		if scan, ok := node.(*Scan); ok {
			scan.Preds = ExtractScanPreds(pred, nil)
		} else {
			pushJoinScanPreds(node, pred)
		}
		node = &Filter{Pred: pred, Child: node}
	}

	items, err := b.expandStars(sel.Items, sc)
	if err != nil {
		return nil, err
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
	var outNames []string
	if needAgg {
		projNode, outNames, err = b.bindAggregate(sel, items, node, sc)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]Expr, len(items))
		outNames = make([]string, len(items))
		for i, it := range items {
			e, err := b.bindExpr(it.Expr, sc, false)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
			outNames[i] = itemName(it, e)
		}
		projNode = &Project{Exprs: exprs, Names: outNames, Child: node}
	}
	node = projNode

	if sel.Distinct {
		node = &Distinct{Child: node}
	}

	if sel.Union != nil {
		right, err := b.BindSelect(sel.Union)
		if err != nil {
			return nil, err
		}
		if len(right.Schema()) != len(node.Schema()) {
			return nil, fmt.Errorf("plan: UNION arms have %d and %d columns", len(node.Schema()), len(right.Schema()))
		}
		typeUntyped(projNode, right.Schema())
		return &Union{Left: node, Right: right, All: sel.UnionAll}, nil
	}
	typeUntyped(projNode, nil)

	if len(sel.OrderBy) > 0 {
		keys, hidden, err := b.bindOrderByHidden(sel.OrderBy, node, outNames, sc, needAgg || sel.Distinct)
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

// typeUntyped gives each select-list column whose bound type is Invalid
// — a bare NULL, or an expression of NULLs alone — a concrete type: the
// type of the column at its position in like (the other arm of a
// UNION) when that has one, else VARCHAR, as PostgreSQL resolves an
// untyped literal to text. Vectors, the operators over them and a
// CREATE TABLE AS column all need one.
func typeUntyped(p *Project, like catalog.Schema) {
	for i, e := range p.Exprs {
		if e.Type() != vector.Invalid {
			continue
		}
		to := vector.String
		if i < len(like) && like[i].Type != vector.Invalid {
			to = like[i].Type
		}
		p.Exprs[i] = &Cast{Operand: e, To: to}
	}
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
			conjuncts := splitAnd(j.On)
			var extras []sql.Expr
			for _, c := range conjuncts {
				lk, rk, ok := b.tryBindEquiKey(c, sc, rsc)
				if ok {
					join.LeftKeys = append(join.LeftKeys, lk)
					join.RightKeys = append(join.RightKeys, rk)
					continue
				}
				extras = append(extras, c)
			}
			if len(extras) > 0 {
				pred, err := b.bindExpr(joinAnd(extras), combined, false)
				if err != nil {
					return nil, nil, fmt.Errorf("in ON: %w", err)
				}
				join.Extra = pred
			}
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

func joinAnd(es []sql.Expr) sql.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &sql.BinaryExpr{Op: sql.OpAnd, Left: out, Right: e}
	}
	return out
}

// tryBindEquiKey recognizes conjuncts of the form l = r where one side
// binds entirely in the left scope and the other in the right scope.
func (b *Binder) tryBindEquiKey(c sql.Expr, left, right *scope) (Expr, Expr, bool) {
	be, ok := c.(*sql.BinaryExpr)
	if !ok || be.Op != sql.OpEq {
		return nil, nil, false
	}
	if lk, err := b.bindExpr(be.Left, left, false); err == nil {
		if rk, err := b.bindExpr(be.Right, right, false); err == nil {
			return lk, rk, true
		}
	}
	if lk, err := b.bindExpr(be.Right, left, false); err == nil {
		if rk, err := b.bindExpr(be.Left, right, false); err == nil {
			return lk, rk, true
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

func itemName(it sql.SelectItem, bound Expr) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		return cr.Name
	}
	return ExprString(bound)
}

func (b *Binder) constInt(e sql.Expr) (int64, error) {
	lit, ok := e.(*sql.Literal)
	if !ok || lit.Value.Type() != vector.Int64 {
		return 0, fmt.Errorf("expected integer literal")
	}
	return lit.Value.Int64(), nil
}

// noColumns is the scope of a constant: it resolves no column.
var noColumns scope

// BindConst binds an expression that must be a constant, such as a
// VALUES cell or a scalar table-function argument: it sees no columns,
// so a column reference is not found, and an aggregate is refused as
// anywhere outside a grouped select list. A literal binds to a *Const.
func (b *Binder) BindConst(e sql.Expr) (Expr, error) {
	return b.bindExpr(e, &noColumns, false)
}

// bindExpr binds a scalar expression against a scope. allowAgg permits
// aggregate function calls (only used inside bindAggregate's argument
// binding, where they are handled separately).
func (b *Binder) bindExpr(e sql.Expr, sc *scope, allowAgg bool) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		v := x.Value
		if v.Type() == vector.String && !v.IsNull() {
			// The lexer slices a literal from its statement's text: the
			// bound value gets bytes of its own, so a row it is stored in
			// does not keep the statement alive.
			v = vector.NewString(strings.Clone(v.Str()))
		}
		return &Const{Val: v, Typ: literalType(x.Value)}, nil
	case *sql.ColumnRef:
		idx, typ, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &ColRef{Idx: idx, Typ: typ, Name: x.Name}, nil
	case *sql.BinaryExpr:
		l, err := b.bindExpr(x.Left, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.Right, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		t, err := binOpType(x.Op, l.Type(), r.Type())
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: x.Op, Left: l, Right: r, Typ: t}, nil
	case *sql.UnaryExpr:
		op, err := b.bindExpr(x.Operand, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			if !op.Type().IsNumeric() {
				return nil, fmt.Errorf("plan: unary minus on %s", op.Type())
			}
			return &Neg{Operand: op}, nil
		}
		return &Not{Operand: op}, nil
	case *sql.IsNullExpr:
		op, err := b.bindExpr(x.Operand, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return &IsNull{Operand: op, Negate: x.Negate}, nil
	case *sql.CastExpr:
		op, err := b.bindExpr(x.Operand, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return &Cast{Operand: op, To: x.To}, nil
	case *sql.InExpr:
		op, err := b.bindExpr(x.Operand, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			bl, err := b.bindExpr(le, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			list[i] = bl
		}
		return &In{Operand: op, List: list, Negate: x.Negate}, nil
	case *sql.CaseExpr:
		return b.bindCase(x, sc, allowAgg)
	case *sql.FuncCall:
		if sql.AggregateNames[x.Name] {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", x.Name)
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
			ba, err := b.bindExpr(a, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			args[i] = ba
			types[i] = ba.Type()
		}
		rt, err := fn.ReturnType(types)
		if err != nil {
			return nil, fmt.Errorf("plan: function %s: %w", x.Name, err)
		}
		return &Call{Fn: fn, Args: args, Typ: rt}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}

func (b *Binder) bindCase(x *sql.CaseExpr, sc *scope, allowAgg bool) (Expr, error) {
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
	var resultType vector.Type
	for _, w := range whens {
		cond, err := b.bindExpr(w.Cond, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		then, err := b.bindExpr(w.Then, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		resultType = mergeCaseType(resultType, then.Type())
		out.Whens = append(out.Whens, When{Cond: cond, Then: then})
	}
	if x.Else != nil {
		els, err := b.bindExpr(x.Else, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		resultType = mergeCaseType(resultType, els.Type())
		out.Else = els
	}
	if resultType == vector.Invalid {
		resultType = vector.String
	}
	out.Typ = resultType
	return out, nil
}

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

func literalType(v vector.Value) vector.Type {
	if v.IsNull() {
		return vector.Invalid
	}
	return v.Type()
}

// ExtractScanPreds collects the WHERE conjuncts a scan can evaluate
// against segment zone maps (ScanPred).
func ExtractScanPreds(e Expr, out []ScanPredicate) []ScanPredicate {
	for _, conj := range Conjuncts(e) {
		if p, ok := ScanPred(conj); ok {
			out = append(out, p)
		}
	}
	return out
}

// ScanPred matches a conjunct of the form `col <cmp> const` (or the
// flipped `const <cmp> col`) that a scan can evaluate against segment
// zone maps, and returns it with the column on the left; Col is the
// column's position in the conjunct's input. Disjunctions, NULL
// constants, incomparable type pairs and <> are all left to the
// row-level filter: <> is excluded because a Float64 NaN row satisfies
// it while being invisible to min/max statistics.
func ScanPred(e Expr) (ScanPredicate, bool) {
	col, op, c, ok := colOpConst(e)
	if !ok || op == sql.OpNe || c.Val.IsNull() {
		return ScanPredicate{}, false
	}
	ct, vt := col.Typ, c.Val.Type()
	if !(ct.IsNumeric() && vt.IsNumeric()) && (ct != vt || ct == vector.Blob) {
		return ScanPredicate{}, false
	}
	return ScanPredicate{Col: col.Idx, Op: op, Val: c.Val}, true
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
// constant, both sides numeric or both VARCHAR. The executor compiles
// its filters from this split and EXPLAIN prints it, so the two agree.
func SplitFilter(pred Expr) (kernels []ScanPredicate, residual []Expr) {
	for _, conj := range Conjuncts(pred) {
		col, op, c, ok := colOpConst(conj)
		if ok && !c.Val.IsNull() {
			ct, vt := col.Typ, c.Val.Type()
			if (ct.IsNumeric() && vt.IsNumeric()) || (ct == vector.String && vt == vector.String) {
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

// pushJoinScanPreds routes scan-eligible WHERE conjuncts through a
// join tree onto the base-table scan owning each column, so zone-map
// pruning fires under joins too.
//
// This is sound for pruning because the WHERE filter still runs over
// every joined row: a base row a pushed `col <op> const` conjunct
// refutes can only ever contribute output rows that fail that same
// conjunct. For inner joins its output rows carry the refuted value
// itself; under the right side of a LEFT join, pruning a build row
// may turn a matched row into a NULL-padded one instead — but a
// comparison is never TRUE on NULL, so the padded row is filtered
// exactly like the matched rows it replaced. Probe-side pruning drops
// the row's entire output, all of which carried the refuted value.
func pushJoinScanPreds(node Node, pred Expr) {
	if _, ok := node.(*HashJoin); !ok {
		return
	}
	for _, p := range ExtractScanPreds(pred, nil) {
		// p.Col is the combined-schema position here; resolve it to
		// the owning leaf and its local (= table-schema) position.
		if scan, local, ok := resolveScanColumn(node, p.Col); ok {
			scan.Preds = append(scan.Preds, ScanPredicate{Col: local, Op: p.Op, Val: p.Val})
		}
	}
}

// resolveScanColumn descends a join tree to the leaf owning combined
// output column idx. It succeeds only when the leaf is a base-table
// Scan without a projection (the bind-time shape, where output
// position equals table-schema position); subquery and function
// leaves are left alone.
func resolveScanColumn(node Node, idx int) (*Scan, int, bool) {
	for {
		switch n := node.(type) {
		case *HashJoin:
			if nl := len(n.Left.Schema()); idx < nl {
				node = n.Left
			} else {
				node, idx = n.Right, idx-nl
			}
		case *Scan:
			if n.Projection != nil {
				return nil, 0, false
			}
			return n, idx, true
		default:
			return nil, 0, false
		}
	}
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
