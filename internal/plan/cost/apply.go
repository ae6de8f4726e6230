package cost

import (
	"math"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
)

// reorderGainFloor is how much cheaper (by modeled cost) a candidate
// order must be before the planner rewrites the tree: the rewrite adds
// a restoration sort, so near-ties stay syntactic.
const reorderGainFloor = 0.9

// parallelRowFloor is the estimated input size below which an
// operator's parallel variant stops paying for its setup (worker
// pipes, per-worker hash tables, merge). Four segments of input is
// roughly where fan-out overhead amortizes.
const parallelRowFloor = 4 * storage.SegmentRows

// Apply runs the cost-based planning pass over a bound, pruned plan:
// inner-join chains are greedily reordered smallest-intermediate-first
// (with an explicit order-restoring sort, so output bytes never
// change) or, where the syntactic order stays, get their single-table
// conjuncts evaluated below the joins instead of above; hash-join
// build sides flip to the smaller estimated input, and every operator
// is annotated with cardinality estimates plus serial/spill-fan-out
// hints. workers and memBudget describe the
// execution environment the hints are sized for. The plan tree is
// mutated in place (plans are query-private); the returned node is the
// new root.
func Apply(root plan.Node, workers int, memBudget int64) plan.Node {
	p := &planner{workers: workers, memBudget: memBudget}
	root = p.rewrite(root)
	p.annotate(root)
	return root
}

type planner struct {
	workers   int
	memBudget int64
}

// rewrite walks the tree looking for inner-join chains to reorder. A
// Filter directly above a chain contributes its WHERE conjuncts to the
// cost model (and to pushdown); it keeps only the conjuncts the chain's
// new tree does not evaluate, and goes when none remain.
func (p *planner) rewrite(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		if hj, ok := x.Child.(*plan.HashJoin); ok && hj.Kind == sql.InnerJoin {
			conjs := plan.Conjuncts(x.Pred)
			child, above := p.reorder(hj, conjs)
			if len(above) == 0 {
				return child
			}
			x.Child = child
			if len(above) < len(conjs) {
				x.Pred = plan.AndAll(above)
			}
			return x
		}
		x.Child = p.rewrite(x.Child)
	case *plan.HashJoin:
		if x.Kind == sql.InnerJoin {
			n, _ = p.reorder(x, nil)
			return n
		}
		x.Left = p.rewrite(x.Left)
		x.Right = p.rewrite(x.Right)
	case *plan.Project:
		x.Child = p.rewrite(x.Child)
	case *plan.Sort:
		x.Child = p.rewrite(x.Child)
	case *plan.Limit:
		x.Child = p.rewrite(x.Child)
	case *plan.Distinct:
		x.Child = p.rewrite(x.Child)
	case *plan.Aggregate:
		x.Child = p.rewrite(x.Child)
	case *plan.Union:
		x.Left = p.rewrite(x.Left)
		x.Right = p.rewrite(x.Right)
	case *plan.TableFuncScan:
		for i := range x.Args {
			if x.Args[i].Sub != nil {
				x.Args[i].Sub = p.rewrite(x.Args[i].Sub)
			}
		}
	}
	return n
}

// reorder evaluates one inner-join chain rooted at hj and returns its
// new tree with the WHERE conjuncts that tree leaves to the Filter
// above. When the chain is not safely decomposable, it recurses into
// the children instead (a deeper sub-chain may still be reorderable)
// and leaves every conjunct above.
func (p *planner) reorder(hj *plan.HashJoin, whereConjs []plan.Expr) (plan.Node, []plan.Expr) {
	c, ok := buildChain(hj, whereConjs)
	if !ok {
		hj.Left = p.rewrite(hj.Left)
		hj.Right = p.rewrite(hj.Right)
		return hj, whereConjs
	}

	order, ev := c.greedyOrder()
	syntactic := c.newEval(0)
	for i := 1; i < len(c.leaves); i++ {
		syntactic.add(i, true)
	}

	identity := true
	for i, li := range order {
		if li != i {
			identity = false
			break
		}
	}
	swapsBuild := false
	for _, b := range ev.buildAcc {
		if b {
			swapsBuild = true
			break
		}
	}
	if identity && !swapsBuild {
		return c.filterLeaves(), c.spanning(whereConjs) // greedy agrees with the syntactic plan
	}
	// The rewrite pays for the restoration sort: charge ~2x the final
	// cardinality (sort + re-projection) on top of the join cost.
	candidate := ev.cost + 2*ev.card
	if candidate >= reorderGainFloor*syntactic.cost {
		return c.filterLeaves(), c.spanning(whereConjs)
	}
	return c.rebuild(order, ev), nil
}

// annotate walks the plan bottom-up filling in EstRows for every node
// that carries hints, plus the serial-execution and spill-fan-out
// decisions. Returns the node's estimated output rows.
func (p *planner) annotate(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		est := float64(x.Table.Data.NumRows())
		x.Hints.EstRows = int64(est)
		return est
	case *plan.Filter:
		in := p.annotate(x.Child)
		est := in
		sc, _ := x.Child.(*plan.Scan)
		for _, cj := range plan.Conjuncts(x.Pred) {
			est *= conjSel(cj, sc, 0)
		}
		if in >= 1 {
			est = math.Max(est, 1)
		}
		x.Hints.EstRows = int64(est)
		return est
	case *plan.Project:
		return p.annotate(x.Child)
	case *plan.HashJoin:
		l := p.annotate(x.Left)
		r := p.annotate(x.Right)
		est := float64(x.Hints.EstRows) // set by the reorderer
		if est <= 0 {
			switch {
			case len(x.LeftKeys) > 0:
				est = l * r / math.Max(math.Max(l, r), 1)
			default:
				est = l * r
			}
			if x.Kind == sql.LeftJoin {
				est = math.Max(est, l)
			}
			x.Hints.EstRows = int64(est)
		}
		x.Hints.Serial = l+r < parallelRowFloor
		p.sizeFanout(&x.Hints, r, len(x.Right.Schema()))
		return est
	case *plan.Aggregate:
		in := p.annotate(x.Child)
		est := 1.0
		if ndv, ok := keysNDV(x); ok {
			est = math.Max(1, math.Min(in, ndv))
		} else if len(x.GroupBy) > 0 {
			// Crude group-count guess: grows with input but sublinearly.
			est = math.Max(1, math.Min(in, 8*math.Sqrt(in)))
		}
		x.Hints.EstRows = int64(est)
		x.Hints.Serial = in < parallelRowFloor
		return est
	case *plan.Sort:
		in := p.annotate(x.Child)
		est := in
		if x.Limit > 0 {
			est = math.Min(est, float64(x.Limit))
		}
		x.Hints.EstRows = int64(est)
		x.Hints.Serial = in < parallelRowFloor
		return est
	case *plan.Limit:
		in := p.annotate(x.Child)
		est := math.Max(in-float64(x.Offset), 0)
		if x.Count >= 0 {
			est = math.Min(est, float64(x.Count))
		}
		return est
	case *plan.Distinct:
		in := p.annotate(x.Child)
		est := math.Max(1, in/2)
		x.Hints.EstRows = int64(est)
		x.Hints.Serial = in < parallelRowFloor
		return est
	case *plan.Union:
		l := p.annotate(x.Left)
		r := p.annotate(x.Right)
		if x.All {
			return l + r
		}
		return math.Max(1, (l+r)/2)
	case *plan.Material:
		return float64(x.Data.NumRows())
	case *plan.TableFuncScan:
		for i := range x.Args {
			if x.Args[i].Sub != nil {
				p.annotate(x.Args[i].Sub)
			}
		}
		return float64(storage.SegmentRows) // unknown; one segment's worth
	}
	return float64(storage.SegmentRows)
}

// keysNDV estimates the groups of an aggregation whose keys are all
// bare columns of the scan under it (through filters, which keep the
// scan's columns): the product of the keys' distinct counts.
func keysNDV(x *plan.Aggregate) (float64, bool) {
	child := x.Child
	for {
		f, ok := child.(*plan.Filter)
		if !ok {
			break
		}
		child = f.Child
	}
	scan, ok := child.(*plan.Scan)
	if !ok || len(x.GroupBy) == 0 {
		return 0, false
	}
	stats, rows := scan.Table.Data.ColumnStatistics(), float64(scan.Table.Data.NumRows())
	ndv := 1.0
	for _, g := range x.GroupBy {
		c, ok := scan.TableColumn(g)
		if !ok {
			return 0, false
		}
		ndv *= colNDV(stats[c], rows)
	}
	return ndv, true
}

// sizeFanout widens the first-level spill partition fan-out when the
// estimated build side clearly exceeds half the memory budget, so a
// single partitioning pass suffices instead of recursive splitting.
// The estimate charges 16 bytes per value plus row overhead — crude,
// but only the order of magnitude matters.
func (p *planner) sizeFanout(h *plan.ExecHints, buildRows float64, buildCols int) {
	if p.memBudget <= 0 || buildRows <= 0 {
		return
	}
	bytes := buildRows * float64(16*buildCols+24)
	half := float64(p.memBudget) / 2
	if bytes <= half {
		return
	}
	bits := 4 // the executor's default fan-out (16 partitions)
	for bits < 8 && float64(uint64(1)<<uint(bits))*half < bytes {
		bits++
	}
	if bits > 4 {
		h.FanoutLog2 = bits
	}
}
