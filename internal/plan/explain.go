// EXPLAIN rendering: a plan tree formats as an indented operator
// outline annotated with the cost-based planner's decisions — join
// order (tree shape), build sides (a hash join always builds on its
// right child), estimated cardinalities, serial-vs-parallel pinning,
// and spill fan-out sizing. With actuals enabled (EXPLAIN ANALYZE),
// each annotated operator also reports the rows it really emitted,
// collected through the Tap counters the engine installs before the
// run.
package plan

import (
	"fmt"
	"strings"
)

// InstallTaps attaches a row counter to every operator that carries
// execution hints, so a subsequent run records actual cardinalities
// for EXPLAIN ANALYZE. Returns the root for chaining.
func InstallTaps(n Node) Node {
	switch x := n.(type) {
	case *Scan:
		x.Hints.Tap = &NodeStats{}
	case *Filter:
		x.Hints.Tap = &NodeStats{}
		InstallTaps(x.Child)
	case *Project:
		InstallTaps(x.Child)
	case *HashJoin:
		x.Hints.Tap = &NodeStats{}
		InstallTaps(x.Left)
		InstallTaps(x.Right)
	case *Aggregate:
		x.Hints.Tap = &NodeStats{}
		InstallTaps(x.Child)
	case *Sort:
		x.Hints.Tap = &NodeStats{}
		InstallTaps(x.Child)
	case *Limit:
		InstallTaps(x.Child)
	case *Distinct:
		x.Hints.Tap = &NodeStats{}
		InstallTaps(x.Child)
	case *Union:
		InstallTaps(x.Left)
		InstallTaps(x.Right)
	case *TableFuncScan:
		for i := range x.Args {
			if x.Args[i].Sub != nil {
				InstallTaps(x.Args[i].Sub)
			}
		}
	}
	return n
}

// Render formats the plan as one operator per line. withActuals adds
// the Tap counters' observed row counts (EXPLAIN ANALYZE, after the
// query has been drained).
func Render(n Node, withActuals bool) string {
	var b strings.Builder
	render(&b, n, 0, withActuals)
	return strings.TrimRight(b.String(), "\n")
}

func render(b *strings.Builder, n Node, depth int, act bool) {
	indent := strings.Repeat("  ", depth)
	line := func(format string, args ...any) {
		fmt.Fprintf(b, "%s%s\n", indent, fmt.Sprintf(format, args...))
	}
	switch x := n.(type) {
	case *Scan:
		s := fmt.Sprintf("Scan %s", x.Table.Name)
		if len(x.Preds) > 0 {
			s += fmt.Sprintf(" preds=%d", len(x.Preds))
		}
		if x.RowPos {
			s += " rowpos"
		}
		line("%s%s", s, hintSuffix(&x.Hints, false, act))
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
		line("Filter%s%s", filterSplit(x), hintSuffix(&x.Hints, false, act))
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
		line("%s%s", s, hintSuffix(&x.Hints, true, act))
		render(b, x.Left, depth+1, act)
		render(b, x.Right, depth+1, act)
	case *Aggregate:
		line("Aggregate groups=%d aggs=%d%s", len(x.GroupBy), len(x.Aggs), hintSuffix(&x.Hints, false, act))
		render(b, x.Child, depth+1, act)
	case *Sort:
		s := fmt.Sprintf("Sort keys=%d", len(x.Keys))
		if x.Limit > 0 {
			s += fmt.Sprintf(" topk=%d", x.Limit)
		}
		line("%s%s", s, hintSuffix(&x.Hints, false, act))
		render(b, x.Child, depth+1, act)
	case *Limit:
		line("Limit count=%d offset=%d", x.Count, x.Offset)
		render(b, x.Child, depth+1, act)
	case *Distinct:
		line("Distinct%s", hintSuffix(&x.Hints, false, act))
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

// hintSuffix renders an operator's planner annotations: estimated (and
// with act, actual) rows — for a hash aggregation also groups inserted
// over groups emitted, and the input row at which it stopped
// pre-aggregating, if it did — the serial/parallel pin, and — for
// operators that can grace-partition (fanout) — the sized spill fan-out.
func hintSuffix(h *ExecHints, fanout, act bool) string {
	var parts []string
	parts = append(parts, fmt.Sprintf("est=%d", h.EstRows))
	if act && h.Tap != nil {
		parts = append(parts, fmt.Sprintf("act=%d", h.Tap.Rows.Load()))
		// Hybrid spill outcome for blocking operators that overflowed:
		// partitions written to disk vs kept resident in memory.
		if sp, res := h.Tap.SpillSpilled.Load(), h.Tap.SpillResident.Load(); sp > 0 || res > 0 {
			parts = append(parts, fmt.Sprintf("spilled=%d resident=%d", sp, res))
		}
		if ins := h.Tap.GroupsInserted.Load(); ins > 0 {
			parts = append(parts, fmt.Sprintf("groups=%d/%d", ins, h.Tap.GroupsEmitted.Load()))
		}
		if at := h.Tap.PartitionedAt.Load(); at > 0 {
			parts = append(parts, fmt.Sprintf("partitioned@%d", at))
		}
	}
	if h.Serial {
		parts = append(parts, "serial")
	}
	if fanout && h.FanoutLog2 > 4 {
		parts = append(parts, fmt.Sprintf("fanout=%d", 1<<h.FanoutLog2))
	}
	return " [" + strings.Join(parts, " ") + "]"
}
