package plan

import "fmt"

// Prune narrows base-table scans to the columns a query actually
// references. Chunks flowing through filters and joins are gathered
// column-by-column, so carrying a 96-column table through a join that
// projects 8 columns would copy 12x too much data — this pass is what
// makes the engine behave like a column store.
//
// The returned plan is a rewritten tree; the input plan must not be
// reused afterwards. Pruning never changes the root's output schema.
func Prune(root Node) Node {
	pruned, remap := pruneNode(root, allTrue(len(root.Schema())))
	for i, m := range remap {
		if m != i {
			// The root's schema must be stable; all binder-produced
			// roots end in Project/Aggregate/Limit chains for which
			// the remap is the identity. Fall back to the unpruned
			// plan otherwise.
			return root
		}
	}
	return pruned
}

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// pruneNode rewrites node so that only useful columns survive, where
// needed flags the output columns the parent references. It returns
// the rewritten node and a remap from old output positions to new
// ones (-1 for dropped columns).
func pruneNode(node Node, needed []bool) (Node, []int) {
	switch n := node.(type) {
	case *Scan:
		if n.Projection != nil {
			return n, identity(len(n.Projection))
		}
		total := len(n.Table.Schema)
		proj := make([]int, 0, total)
		remap := make([]int, total)
		for i := range remap {
			remap[i] = -1
		}
		for i := 0; i < total; i++ {
			if needed[i] {
				remap[i] = len(proj)
				proj = append(proj, i)
			}
		}
		if len(proj) == total {
			return n, identity(total)
		}
		if len(proj) == 0 {
			// A scan whose columns are all unused (e.g. COUNT(*))
			// still needs one column to carry the row count.
			proj = []int{0}
			remap[0] = 0
		}
		return &Scan{Table: n.Table, Projection: proj}, remap

	case *Filter:
		req := cloneBools(needed)
		markRefs(n.Pred, req)
		child, remap := pruneNode(n.Child, req)
		return &Filter{Pred: remapExpr(n.Pred, remap), Child: child}, remap

	case *Project:
		childNeeded := make([]bool, len(n.Child.Schema()))
		for _, e := range n.Exprs {
			markRefs(e, childNeeded)
		}
		child, remap := pruneNode(n.Child, childNeeded)
		exprs := make([]Expr, len(n.Exprs))
		for i, e := range n.Exprs {
			exprs[i] = remapExpr(e, remap)
		}
		return &Project{Exprs: exprs, Names: n.Names, Child: child}, identity(len(exprs))

	case *HashJoin:
		nl := len(n.Left.Schema())
		nr := len(n.Right.Schema())
		leftNeeded := make([]bool, nl)
		rightNeeded := make([]bool, nr)
		for i := 0; i < nl; i++ {
			leftNeeded[i] = needed[i]
		}
		for i := 0; i < nr; i++ {
			rightNeeded[i] = needed[nl+i]
		}
		for _, k := range n.LeftKeys {
			markRefs(k, leftNeeded)
		}
		for _, k := range n.RightKeys {
			markRefs(k, rightNeeded)
		}
		if n.Extra != nil {
			combined := make([]bool, nl+nr)
			markRefs(n.Extra, combined)
			for i := 0; i < nl; i++ {
				leftNeeded[i] = leftNeeded[i] || combined[i]
			}
			for i := 0; i < nr; i++ {
				rightNeeded[i] = rightNeeded[i] || combined[nl+i]
			}
		}
		left, leftRemap := pruneNode(n.Left, leftNeeded)
		right, rightRemap := pruneNode(n.Right, rightNeeded)
		nlNew := len(left.Schema())
		combinedRemap := make([]int, nl+nr)
		for i := 0; i < nl; i++ {
			combinedRemap[i] = leftRemap[i]
		}
		for i := 0; i < nr; i++ {
			if rightRemap[i] < 0 {
				combinedRemap[nl+i] = -1
			} else {
				combinedRemap[nl+i] = nlNew + rightRemap[i]
			}
		}
		out := &HashJoin{Kind: n.Kind, Left: left, Right: right}
		for i := range n.LeftKeys {
			out.LeftKeys = append(out.LeftKeys, remapExpr(n.LeftKeys[i], leftRemap))
			out.RightKeys = append(out.RightKeys, remapExpr(n.RightKeys[i], rightRemap))
		}
		if n.Extra != nil {
			out.Extra = remapExpr(n.Extra, combinedRemap)
		}
		return out, combinedRemap

	case *Aggregate:
		childNeeded := make([]bool, len(n.Child.Schema()))
		for _, g := range n.GroupBy {
			markRefs(g, childNeeded)
		}
		for _, a := range n.Aggs {
			if a.Arg != nil {
				markRefs(a.Arg, childNeeded)
			}
		}
		child, remap := pruneNode(n.Child, childNeeded)
		out := &Aggregate{Child: child, GroupNames: n.GroupNames}
		for _, g := range n.GroupBy {
			out.GroupBy = append(out.GroupBy, remapExpr(g, remap))
		}
		for _, a := range n.Aggs {
			na := a
			if a.Arg != nil {
				na.Arg = remapExpr(a.Arg, remap)
			}
			out.Aggs = append(out.Aggs, na)
		}
		return out, identity(len(n.GroupBy) + len(n.Aggs))

	case *Sort:
		req := cloneBools(needed)
		for _, k := range n.Keys {
			markRefs(k.Expr, req)
		}
		child, remap := pruneNode(n.Child, req)
		out := &Sort{Child: child, Limit: n.Limit}
		for _, k := range n.Keys {
			out.Keys = append(out.Keys, SortKey{Expr: remapExpr(k.Expr, remap), Desc: k.Desc})
		}
		return out, remap

	case *Limit:
		child, remap := pruneNode(n.Child, needed)
		return &Limit{Count: n.Count, Offset: n.Offset, Child: child}, remap

	case *Distinct:
		// DISTINCT dedups over its full input; no column may drop.
		child, remap := pruneNode(n.Child, allTrue(len(n.Child.Schema())))
		return &Distinct{Child: child}, remap

	case *Union:
		left, _ := pruneNode(n.Left, allTrue(len(n.Left.Schema())))
		right, _ := pruneNode(n.Right, allTrue(len(n.Right.Schema())))
		return &Union{Left: left, Right: right, All: n.All}, identity(len(n.Left.Schema()))

	case *TableFuncScan:
		out := &TableFuncScan{Fn: n.Fn}
		for _, a := range n.Args {
			if a.Sub != nil {
				sub, _ := pruneNode(a.Sub, allTrue(len(a.Sub.Schema())))
				out.Args = append(out.Args, FuncArg{Sub: sub})
				continue
			}
			out.Args = append(out.Args, a)
		}
		return out, identity(len(n.Fn.Columns))

	case *Material:
		return n, identity(len(n.Schem))
	}
	return node, identity(len(node.Schema()))
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func cloneBools(b []bool) []bool {
	out := make([]bool, len(b))
	copy(out, b)
	return out
}

// markRefs sets needed[i] for every column reference in e.
func markRefs(e Expr, needed []bool) {
	switch x := e.(type) {
	case *ColRef:
		needed[x.Idx] = true
	case *BinOp:
		markRefs(x.Left, needed)
		markRefs(x.Right, needed)
	case *Neg:
		markRefs(x.Operand, needed)
	case *Not:
		markRefs(x.Operand, needed)
	case *IsNull:
		markRefs(x.Operand, needed)
	case *Cast:
		markRefs(x.Operand, needed)
	case *Case:
		for _, w := range x.Whens {
			markRefs(w.Cond, needed)
			markRefs(w.Then, needed)
		}
		if x.Else != nil {
			markRefs(x.Else, needed)
		}
	case *Call:
		for _, a := range x.Args {
			markRefs(a, needed)
		}
	case *In:
		markRefs(x.Operand, needed)
		for _, l := range x.List {
			markRefs(l, needed)
		}
	}
}

// remapExpr rewrites column references through remap.
func remapExpr(e Expr, remap []int) Expr {
	switch x := e.(type) {
	case *ColRef:
		m := remap[x.Idx]
		if m < 0 {
			panic(fmt.Sprintf("plan: pruned column #%d still referenced", x.Idx))
		}
		if m == x.Idx {
			return x
		}
		return &ColRef{Idx: m, Typ: x.Typ, Name: x.Name}
	case *Const:
		return x
	case *BinOp:
		return &BinOp{Op: x.Op, Left: remapExpr(x.Left, remap), Right: remapExpr(x.Right, remap), Typ: x.Typ}
	case *Neg:
		return &Neg{Operand: remapExpr(x.Operand, remap)}
	case *Not:
		return &Not{Operand: remapExpr(x.Operand, remap)}
	case *IsNull:
		return &IsNull{Operand: remapExpr(x.Operand, remap), Negate: x.Negate}
	case *Cast:
		return &Cast{Operand: remapExpr(x.Operand, remap), To: x.To}
	case *Case:
		out := &Case{Typ: x.Typ}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, When{Cond: remapExpr(w.Cond, remap), Then: remapExpr(w.Then, remap)})
		}
		if x.Else != nil {
			out.Else = remapExpr(x.Else, remap)
		}
		return out
	case *Call:
		out := &Call{Fn: x.Fn, Typ: x.Typ}
		for _, a := range x.Args {
			out.Args = append(out.Args, remapExpr(a, remap))
		}
		return out
	case *In:
		out := &In{Operand: remapExpr(x.Operand, remap), Negate: x.Negate}
		for _, l := range x.List {
			out.List = append(out.List, remapExpr(l, remap))
		}
		return out
	}
	return e
}
