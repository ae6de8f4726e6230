package cost

import (
	"math"
	"math/bits"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// leafSet is a bitmask over chain leaf indexes.
type leafSet uint64

func single(i int) leafSet              { return 1 << uint(i) }
func (s leafSet) has(i int) bool        { return s&single(i) != 0 }
func (s leafSet) subset(t leafSet) bool { return s&^t == 0 }
func (s leafSet) count() int            { return bits.OnesCount64(uint64(s)) }

// maxChainLeaves bounds reordered chains (leafSet headroom and greedy
// cost); longer chains stay syntactic.
const maxChainLeaves = 12

// chainLeaf is one base-table leaf of an inner-join chain.
type chainLeaf struct {
	scan    *plan.Scan
	start   int // column offset in the syntactic combined schema
	width   int // schema width before the rowpos tag
	rows    float64
	card    float64     // rows after single-leaf predicates
	filters []plan.Expr // single-leaf conjuncts, full-schema space
	stats   []storage.ColumnStats
}

// node is the leaf as a join input: its scan under its single-leaf
// conjuncts, moved into the scan's own column space.
func (l *chainLeaf) node() plan.Node {
	if len(l.filters) == 0 {
		return l.scan
	}
	conj := make([]plan.Expr, len(l.filters))
	for k, f := range l.filters {
		conj[k] = shiftExpr(f, -l.start)
	}
	return &plan.Filter{Pred: plan.AndAll(conj), Child: l.scan}
}

func (l *chainLeaf) tableCol(local int) int {
	if l.scan.Projection == nil {
		return local
	}
	return l.scan.Projection[local]
}

// equi is one equality conjunct usable as a join edge. Keyable edges
// come from ON clauses and become hash-join key pairs in rebuilt trees
// (hash-key matching semantics carry over exactly); non-keyable edges
// come from pushed WHERE conjuncts and are re-evaluated as residual
// comparison filters — promoting a comparison to a hash key could
// change NaN / mixed-type matching semantics, so they never become
// keys. Both kinds contribute 1/max(NDV) to cardinality estimates.
type equi struct {
	l, r       plan.Expr // syntactic full-schema space
	lSet, rSet leafSet
	keyable    bool
	pushed     plan.Expr // conjunct to re-evaluate in the rebuilt tree; nil for ON keys
}

// residual is a non-equality conjunct spanning several leaves, placed
// at the earliest join where all its columns are available.
type residual struct {
	e   plan.Expr
	set leafSet
	sel float64
}

// chain is a maximal left-deep inner-join chain over base-table scans,
// decomposed into leaves and normalized conjuncts.
type chain struct {
	leaves []*chainLeaf
	joins  []*plan.HashJoin // joins[i] joins leaves[0..i] with leaves[i+1]
	equis  []equi
	res    []residual
}

// buildChain decomposes the left-deep inner-join tree under root. A
// leaf is a base-table scan, or a Filter directly over one (the WHERE
// conjuncts the binder placed there), whose conjuncts become the leaf's
// filters. It returns ok=false when the chain is not safely
// reorderable: a leaf is anything else, a join key side spans several
// leaves, or a join key, ON or WHERE conjunct may raise (plan.MayFail),
// which must see exactly the rows the syntactic plan gives it.
func buildChain(root *plan.HashJoin, whereConjs []plan.Expr) (*chain, bool) {
	c := &chain{}
	var walk func(n plan.Node) bool
	walk = func(n plan.Node) bool {
		if hj, ok := n.(*plan.HashJoin); ok && hj.Kind == sql.InnerJoin {
			if !walk(hj.Left) {
				return false
			}
			c.joins = append(c.joins, hj)
			n = hj.Right
		}
		var placed []plan.Expr
		if f, ok := n.(*plan.Filter); ok {
			placed, n = plan.Conjuncts(f.Pred), f.Child
		}
		sc, ok := n.(*plan.Scan)
		if !ok || sc.RowPos {
			return false
		}
		c.leaves = append(c.leaves, &chainLeaf{scan: sc, filters: placed})
		return true
	}
	if !walk(root) || len(c.leaves) < 2 || len(c.leaves) > maxChainLeaves {
		return nil, false
	}
	off := 0
	for _, l := range c.leaves {
		l.start = off
		for k, f := range l.filters {
			l.filters[k] = shiftExpr(f, off)
		}
		l.width = len(l.scan.Schema())
		off += l.width
		l.rows = float64(l.scan.Table.Data.NumRows())
		l.stats = l.scan.Table.Data.ColumnStatistics()
	}

	for i, hj := range c.joins {
		leaf := c.leaves[i+1]
		for k := range hj.LeftKeys {
			if plan.MayFail(hj.LeftKeys[k]) || plan.MayFail(hj.RightKeys[k]) {
				return nil, false
			}
			l := hj.LeftKeys[k] // prefix schema is a prefix of the full schema
			r := shiftExpr(hj.RightKeys[k], leaf.start)
			lSet, ok1 := c.refLeaves(l)
			rSet, ok2 := c.refLeaves(r)
			if !ok1 || !ok2 || lSet.count() > 1 || rSet.count() > 1 {
				// A multi-leaf key side can become un-keyable under
				// reordering, and demoting a hash key to a comparison
				// filter is not semantics-preserving. Keep syntactic.
				return nil, false
			}
			c.equis = append(c.equis, equi{l: l, r: r, lSet: lSet, rSet: rSet, keyable: true})
		}
		if hj.Extra != nil {
			for _, conj := range plan.Conjuncts(hj.Extra) {
				if plan.MayFail(conj) || !c.addConjunct(conj) {
					return nil, false
				}
			}
		}
	}
	for _, conj := range whereConjs {
		if plan.MayFail(conj) || !c.addConjunct(conj) {
			return nil, false
		}
	}
	c.leafCards()
	return c, true
}

// addConjunct classifies one pushable conjunct: single-leaf conjuncts
// filter at the leaf, cross-leaf equalities become (non-keyable) join
// edges, everything else is a residual filter. A conjunct naming no
// column is one whose evaluation fails — the binder folds every other —
// and keeps the chain syntactic, so it fails where it would without
// the planner.
func (c *chain) addConjunct(conj plan.Expr) bool {
	set, ok := c.refLeaves(conj)
	if !ok || set == 0 {
		return false
	}
	if set.count() == 1 {
		l := c.leaves[bits.TrailingZeros64(uint64(set))]
		l.filters = append(l.filters, conj)
		return true
	}
	if b, okb := conj.(*plan.BinOp); okb && b.Op == sql.OpEq {
		lSet, ok1 := c.refLeaves(b.Left)
		rSet, ok2 := c.refLeaves(b.Right)
		if ok1 && ok2 && lSet.count() == 1 && rSet.count() == 1 && lSet != rSet {
			c.equis = append(c.equis, equi{l: b.Left, r: b.Right, lSet: lSet, rSet: rSet, pushed: conj})
			return true
		}
	}
	c.res = append(c.res, residual{e: conj, set: set, sel: filterConjSel(conj)})
	return true
}

// leafCards estimates each leaf's post-filter cardinality.
func (c *chain) leafCards() {
	for _, l := range c.leaves {
		card := l.rows
		for _, f := range l.filters {
			card *= conjSel(f, l.scan, l.start)
		}
		l.card = math.Max(card, 1)
	}
}

func (c *chain) leafIndexOf(col int) int {
	for i, l := range c.leaves {
		if col >= l.start && col < l.start+l.width {
			return i
		}
	}
	return -1
}

func (c *chain) refLeaves(e plan.Expr) (leafSet, bool) {
	set, ok := leafSet(0), true
	plan.EachColRef(e, func(r *plan.ColRef) {
		li := c.leafIndexOf(r.Idx)
		if li < 0 {
			ok = false
			return
		}
		set |= single(li)
	})
	return set, ok
}

// sideNDV estimates the distinct count of one side of an equi edge.
// Plain column references read the HLL estimate; constants are one
// value; computed expressions default to sqrt of the side cardinality.
func (c *chain) sideNDV(e plan.Expr, sideCard float64) float64 {
	switch x := e.(type) {
	case *plan.ColRef:
		if li := c.leafIndexOf(x.Idx); li >= 0 {
			l := c.leaves[li]
			tcol := l.tableCol(x.Idx - l.start)
			if tcol >= 0 && tcol < len(l.stats) {
				return math.Min(colNDV(l.stats[tcol], l.rows), math.Max(sideCard, 1))
			}
		}
	case *plan.Const:
		_ = x
		return 1
	}
	return math.Max(1, math.Sqrt(math.Max(sideCard, 1)))
}

// orderEval scores one join order incrementally. cost accumulates
// step outputs plus build-side inputs — the two terms the hash join's
// runtime is proportional to.
type orderEval struct {
	c        *chain
	accSet   leafSet
	card     float64
	usedEq   uint64
	usedRes  uint64
	cost     float64
	steps    []float64
	buildAcc []bool // per step: accumulated side is the (Right) build side
}

func (c *chain) newEval(first int) *orderEval {
	return &orderEval{c: c, accSet: single(first), card: c.leaves[first].card}
}

func (ev *orderEval) sideCard(set leafSet, li int, leafCard float64) float64 {
	if set != 0 && set.subset(single(li)) {
		return leafCard
	}
	return ev.card
}

// peek estimates the output of joining leaf li next, and whether a
// keyable edge connects it to the accumulated set, without mutating
// the evaluation.
func (ev *orderEval) peek(li int) (out float64, connected bool) {
	c := ev.c
	leafCard := c.leaves[li].card
	newSet := ev.accSet | single(li)
	sel := 1.0
	for i := range c.equis {
		e := &c.equis[i]
		if ev.usedEq&(1<<uint(i)) != 0 || !(e.lSet | e.rSet).subset(newSet) {
			continue
		}
		if e.keyable {
			connected = true
		}
		n1 := c.sideNDV(e.l, ev.sideCard(e.lSet, li, leafCard))
		n2 := c.sideNDV(e.r, ev.sideCard(e.rSet, li, leafCard))
		sel /= math.Max(math.Max(n1, n2), 1)
	}
	for i := range c.res {
		r := &c.res[i]
		if ev.usedRes&(1<<uint(i)) != 0 || !r.set.subset(newSet) {
			continue
		}
		sel *= r.sel
	}
	return math.Max(ev.card*leafCard*sel, 1), connected
}

// add joins leaf li onto the accumulated tree. The build side is the
// smaller estimated input; forceLeafBuild pins the syntactic behavior
// (the new leaf always builds), used to score the baseline plan.
func (ev *orderEval) add(li int, forceLeafBuild bool) {
	out, _ := ev.peek(li)
	c := ev.c
	newSet := ev.accSet | single(li)
	for i := range c.equis {
		if (c.equis[i].lSet | c.equis[i].rSet).subset(newSet) {
			ev.usedEq |= 1 << uint(i)
		}
	}
	for i := range c.res {
		if c.res[i].set.subset(newSet) {
			ev.usedRes |= 1 << uint(i)
		}
	}
	leafCard := c.leaves[li].card
	buildAcc := !forceLeafBuild && ev.card <= leafCard
	build := leafCard
	if buildAcc {
		build = ev.card
	}
	ev.cost += out + build
	ev.card = out
	ev.accSet = newSet
	ev.steps = append(ev.steps, out)
	ev.buildAcc = append(ev.buildAcc, buildAcc)
}

// greedyOrder builds an order smallest-intermediate-first: start at
// the smallest filtered leaf, then repeatedly add the leaf giving the
// smallest next intermediate, preferring leaves connected by a keyable
// edge (an unconnected pick is a cross product and only happens when
// nothing is connected).
func (c *chain) greedyOrder() ([]int, *orderEval) {
	n := len(c.leaves)
	first := 0
	for i := 1; i < n; i++ {
		if c.leaves[i].card < c.leaves[first].card {
			first = i
		}
	}
	order := []int{first}
	ev := c.newEval(first)
	placed := single(first)
	for len(order) < n {
		best, bestOut, bestConn := -1, 0.0, false
		for li := 0; li < n; li++ {
			if placed.has(li) {
				continue
			}
			out, conn := ev.peek(li)
			better := best < 0 ||
				(conn && !bestConn) ||
				(conn == bestConn && out < bestOut)
			if better && !(bestConn && !conn) {
				best, bestOut, bestConn = li, out, conn
			}
		}
		ev.add(best, false)
		order = append(order, best)
		placed |= single(best)
	}
	return order, ev
}

// shiftExpr offsets every column reference by delta.
func shiftExpr(e plan.Expr, delta int) plan.Expr {
	if delta == 0 {
		return e
	}
	return plan.MapColRefs(e, func(r *plan.ColRef) plan.Expr {
		return &plan.ColRef{Idx: r.Idx + delta, Typ: r.Typ, Name: r.Name}
	})
}

// rebuild materializes the chosen order as a new join tree that is
// byte-identical to the syntactic one: every leaf is tagged with its
// table row position, joined in the new order with pushed-down
// filters, then sorted back into syntactic row order (the syntactic
// left-deep chain emits rows in lexicographic order of base row
// positions) and projected back into the syntactic column order.
func (c *chain) rebuild(order []int, ev *orderEval) plan.Node {
	nodes := make([]plan.Node, len(c.leaves))
	for i, l := range c.leaves {
		l.scan.RowPos = true
		nodes[i] = l.node()
	}

	layout := []int{order[0]}
	tree := nodes[order[0]]
	accSet := single(order[0])
	var usedEq, usedRes uint64
	for si, li := range order[1:] {
		leaf := c.leaves[li]
		newSet := accSet | single(li)
		prevLayout := append([]int(nil), layout...)
		buildAcc := ev.buildAcc[si]
		if buildAcc {
			layout = append([]int{li}, layout...)
		} else {
			layout = append(layout, li)
		}

		var lkeys, rkeys, extras []plan.Expr
		for i := range c.equis {
			e := &c.equis[i]
			if usedEq&(1<<uint(i)) != 0 || !(e.lSet | e.rSet).subset(newSet) {
				continue
			}
			usedEq |= 1 << uint(i)
			if !e.keyable {
				extras = append(extras, c.remapLayout(e.pushed, layout))
				continue
			}
			leafE, accE := e.l, e.r
			if !(e.lSet.subset(single(li)) && e.rSet.subset(accSet)) {
				leafE, accE = e.r, e.l
			}
			start := leaf.start
			leafK := plan.MapColRefs(leafE, func(r *plan.ColRef) plan.Expr {
				return &plan.ColRef{Idx: r.Idx - start, Typ: r.Typ, Name: r.Name}
			})
			accK := c.remapLayout(accE, prevLayout)
			if buildAcc {
				lkeys = append(lkeys, leafK)
				rkeys = append(rkeys, accK)
			} else {
				lkeys = append(lkeys, accK)
				rkeys = append(rkeys, leafK)
			}
		}
		for i := range c.res {
			r := &c.res[i]
			if usedRes&(1<<uint(i)) != 0 || !r.set.subset(newSet) {
				continue
			}
			usedRes |= 1 << uint(i)
			extras = append(extras, c.remapLayout(r.e, layout))
		}

		jn := &plan.HashJoin{Kind: sql.InnerJoin, LeftKeys: lkeys, RightKeys: rkeys, Extra: plan.AndAll(extras)}
		if buildAcc {
			jn.Left, jn.Right = nodes[li], tree
		} else {
			jn.Left, jn.Right = tree, nodes[li]
		}
		jn.Hints.EstRows = int64(ev.steps[si])
		tree = jn
		accSet = newSet
	}

	offsets := make([]int, len(c.leaves))
	off := 0
	for _, li := range layout {
		offsets[li] = off
		off += c.leaves[li].width + 1
	}
	var keys []plan.SortKey
	for li, l := range c.leaves { // syntactic leaf priority
		keys = append(keys, plan.SortKey{Expr: &plan.ColRef{
			Idx: offsets[li] + l.width, Typ: vector.Int64, Name: "__rowpos"}})
	}
	sorted := &plan.Sort{Keys: keys, Child: tree}
	sorted.Hints.EstRows = int64(ev.card)

	var exprs []plan.Expr
	var names []string
	for _, l := range c.leaves {
		sch := l.scan.Schema()
		base := offsets[c.leafIndexOf(l.start)]
		for k := 0; k < l.width; k++ {
			exprs = append(exprs, &plan.ColRef{Idx: base + k, Typ: sch[k].Type, Name: sch[k].Name})
			names = append(names, sch[k].Name)
		}
	}
	return &plan.Project{Exprs: exprs, Names: names, Child: sorted}
}

// filterLeaves keeps the syntactic tree and filters its leaves: an
// inner join emits probe order x build order, so filtering either
// input early keeps exactly the rows a Filter above the chain would
// keep, in the same order — without probing the rest.
func (c *chain) filterLeaves() plan.Node {
	c.joins[0].Left = c.leaves[0].node()
	for i, hj := range c.joins {
		hj.Right = c.leaves[i+1].node()
	}
	return c.joins[len(c.joins)-1]
}

// spanning is what of the WHERE conjuncts a syntactic tree with
// filtered leaves does not evaluate: those over several leaves. A
// rebuilt tree places every conjunct at its earliest join.
func (c *chain) spanning(whereConjs []plan.Expr) []plan.Expr {
	var out []plan.Expr
	for _, conj := range whereConjs {
		if set, _ := c.refLeaves(conj); set.count() > 1 {
			out = append(out, conj)
		}
	}
	return out
}

// remapLayout rewrites a full-schema expression into the rebuilt
// tree's column space: each leaf occupies a block of width+1 columns
// (its pruned schema plus the rowpos tag) at its layout offset.
func (c *chain) remapLayout(e plan.Expr, layout []int) plan.Expr {
	return plan.MapColRefs(e, func(r *plan.ColRef) plan.Expr {
		li := c.leafIndexOf(r.Idx)
		l := c.leaves[li]
		off := 0
		for _, m := range layout {
			if m == li {
				break
			}
			off += c.leaves[m].width + 1
		}
		return &plan.ColRef{Idx: off + (r.Idx - l.start), Typ: r.Typ, Name: r.Name}
	})
}
