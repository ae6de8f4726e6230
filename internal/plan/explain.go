// EXPLAIN rendering: a plan tree formats as an indented operator
// outline annotated with the cost-based planner's decisions — join
// order (tree shape), build sides (a hash join always builds on its
// right child), estimated cardinalities, serial-vs-parallel pinning,
// and spill fan-out sizing. With actuals (EXPLAIN ANALYZE, after the
// query has been drained), each annotated operator also reports what
// the executor's profile recorded for it.
package plan

import (
	"fmt"
	"strings"
)

// Render formats the plan as one operator per line. actuals, when
// non-nil, renders what executing a node did (EXPLAIN ANALYZE); it is
// asked for each node that carries execution hints.
func Render(n Node, actuals func(Node) string) string {
	var b strings.Builder
	render(&b, n, 0, actuals)
	return strings.TrimRight(b.String(), "\n")
}

func render(b *strings.Builder, n Node, depth int, act func(Node) string) {
	indent := strings.Repeat("  ", depth)
	line := func(format string, args ...any) {
		fmt.Fprintf(b, "%s%s\n", indent, fmt.Sprintf(format, args...))
	}
	switch x := n.(type) {
	case *Scan:
		s := fmt.Sprintf("Scan %s", x.Table.Name)
		if x.RowPos {
			s += " rowpos"
		}
		line("%s%s", s, hintSuffix(n, &x.Hints, false, act))
	case *Material:
		line("Material rows=%d", x.Data.NumRows())
	case *TableFuncScan:
		line("TableFunc %s", x.Fn.Name)
		for i := range x.Args {
			if x.Args[i].Sub != nil {
				render(b, x.Args[i].Sub, depth+1, act)
			}
		}
	case *Filter:
		line("Filter%s%s", filterSplit(x), hintSuffix(n, &x.Hints, false, act))
		render(b, x.Child, depth+1, act)
	case *Project:
		line("Project cols=%d", len(x.Exprs))
		render(b, x.Child, depth+1, act)
	case *HashJoin:
		kind := "inner"
		if x.Kind != 0 {
			kind = "left"
		}
		s := fmt.Sprintf("HashJoin %s", kind)
		if len(x.LeftKeys) > 0 {
			pairs := make([]string, len(x.LeftKeys))
			for i := range x.LeftKeys {
				pairs[i] = ExprString(x.LeftKeys[i]) + " = " + ExprString(x.RightKeys[i])
			}
			s += " on " + strings.Join(pairs, ", ")
		} else {
			s += " cross"
		}
		if x.Extra != nil {
			s += " residual"
		}
		s += " build=right"
		line("%s%s", s, hintSuffix(n, &x.Hints, true, act))
		render(b, x.Left, depth+1, act)
		render(b, x.Right, depth+1, act)
	case *Aggregate:
		line("Aggregate groups=%d aggs=%d%s", len(x.GroupBy), len(x.Aggs), hintSuffix(n, &x.Hints, false, act))
		render(b, x.Child, depth+1, act)
	case *Sort:
		s := fmt.Sprintf("Sort keys=%d", len(x.Keys))
		if x.Limit > 0 {
			s += fmt.Sprintf(" topk=%d", x.Limit)
		}
		line("%s%s", s, hintSuffix(n, &x.Hints, false, act))
		render(b, x.Child, depth+1, act)
	case *Limit:
		line("Limit count=%d offset=%d", x.Count, x.Offset)
		render(b, x.Child, depth+1, act)
	case *Distinct:
		line("Distinct%s", hintSuffix(n, &x.Hints, false, act))
		render(b, x.Child, depth+1, act)
	case *Union:
		all := ""
		if x.All {
			all = " all"
		}
		line("Union%s", all)
		render(b, x.Left, depth+1, act)
		render(b, x.Right, depth+1, act)
	default:
		line("%T", n)
	}
}

// filterSplit renders a filter's predicate as the executor runs it: the
// conjuncts that are selection kernels, then the residual.
func filterSplit(f *Filter) string {
	kernels, residual := SplitFilter(f.Pred)
	schema := f.Child.Schema()
	var s string
	if len(kernels) > 0 {
		ks := make([]string, len(kernels))
		for i, k := range kernels {
			ks[i] = fmt.Sprintf("(%s %s %s)", schema[k.Col].Name, k.Op, k.Val)
		}
		s += " kernels=[" + strings.Join(ks, ", ") + "]"
	}
	if len(residual) > 0 {
		rs := make([]string, len(residual))
		for i, r := range residual {
			rs[i] = ExprString(r)
		}
		s += " residual=[" + strings.Join(rs, ", ") + "]"
	}
	return s
}

// hintSuffix renders an operator's planner annotations: estimated rows
// (and with act, what executing n did), the serial/parallel pin, and —
// for operators that can grace-partition (fanout) — the sized spill
// fan-out.
func hintSuffix(n Node, h *ExecHints, fanout bool, act func(Node) string) string {
	parts := []string{fmt.Sprintf("est=%d", h.EstRows)}
	if act != nil {
		parts = append(parts, act(n))
	}
	if h.Serial {
		parts = append(parts, "serial")
	}
	if fanout && h.FanoutLog2 > 4 {
		parts = append(parts, fmt.Sprintf("fanout=%d", 1<<h.FanoutLog2))
	}
	return " [" + strings.Join(parts, " ") + "]"
}
