package cost

import (
	"fmt"
	"math"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// fillTable appends rows generated by gen (row index -> values); the
// store seals a segment (computing sketches) every SegmentRows rows,
// so tables larger than one segment carry real statistics.
func fillTable(t *testing.T, tab *catalog.Table, n int, gen func(i int) []vector.Value) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tab.Data.AppendRow(gen(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// eventsCatalog builds the skewed three-table workload: two large
// event tables sharing a hot low-cardinality key k (their join
// explodes), and a selective dimension join on dk.
func eventsCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	big1, err := cat.CreateTable("big1", catalog.Schema{
		{Name: "k", Type: vector.Int64},
		{Name: "dk", Type: vector.Int64},
		{Name: "v", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	big2, err := cat.CreateTable("big2", catalog.Schema{
		{Name: "k", Type: vector.Int64},
		{Name: "w", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.CreateTable("dim", catalog.Schema{
		{Name: "dk", Type: vector.Int64},
		{Name: "label", Type: vector.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 4 * storage.SegmentRows
	fillTable(t, big1, rows, func(i int) []vector.Value {
		return []vector.Value{vector.NewInt64(int64(i % 7)), vector.NewInt64(int64(i % 256)), vector.NewFloat64(float64(i))}
	})
	fillTable(t, big2, rows, func(i int) []vector.Value {
		return []vector.Value{vector.NewInt64(int64(i % 7)), vector.NewFloat64(float64(i) / 2)}
	})
	fillTable(t, dim, 256, func(i int) []vector.Value {
		return []vector.Value{vector.NewInt64(int64(i)), vector.NewString(fmt.Sprintf("d%d", i))}
	})
	return cat
}

func bindSelect(t *testing.T, cat *catalog.Catalog, query string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	core.RegisterBuiltins(reg)
	node, err := plan.NewBinder(cat, reg).BindSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return plan.Prune(node)
}

// scanTables collects the table names of every Scan in the subtree, in
// depth-first (left-to-right) order.
func scanTables(n plan.Node, out *[]string) {
	switch x := n.(type) {
	case *plan.Scan:
		*out = append(*out, x.Table.Name)
	case *plan.Filter:
		scanTables(x.Child, out)
	case *plan.Project:
		scanTables(x.Child, out)
	case *plan.Sort:
		scanTables(x.Child, out)
	case *plan.Limit:
		scanTables(x.Child, out)
	case *plan.HashJoin:
		scanTables(x.Left, out)
		scanTables(x.Right, out)
	}
}

// firstJoin returns the deepest hash join of a join chain — the one
// that executes first. Rebuilt chains accumulate on the right (build)
// side, syntactic chains on the left, so both directions are searched.
func firstJoin(n plan.Node) *plan.HashJoin {
	var best *plan.HashJoin
	bestDepth := -1
	var walk func(n plan.Node, d int)
	walk = func(n plan.Node, d int) {
		switch x := n.(type) {
		case *plan.HashJoin:
			if d > bestDepth {
				best, bestDepth = x, d
			}
			walk(x.Left, d+1)
			walk(x.Right, d+1)
		case *plan.Filter:
			walk(x.Child, d)
		case *plan.Project:
			walk(x.Child, d)
		case *plan.Sort:
			walk(x.Child, d)
		case *plan.Limit:
			walk(x.Child, d)
		}
	}
	walk(n, 0)
	return best
}

// TestSkewFlipsJoinOrder: written syntactically, the exploding
// big1-big2 join runs first. The cost pass must pull the selective dim
// join ahead of it — and wrap the rewrite in the order-restoring
// sort/projection so the schema is unchanged.
func TestSkewFlipsJoinOrder(t *testing.T) {
	cat := eventsCatalog(t)
	const q = "SELECT big1.v, big2.w, dim.label FROM big1 JOIN big2 ON big1.k = big2.k JOIN dim ON big1.dk = dim.dk WHERE dim.dk < 8"
	node := bindSelect(t, cat, q)
	schemaBefore := node.Schema()

	got := Apply(node, 1, 0)
	if gs := got.Schema(); len(gs) != len(schemaBefore) {
		t.Fatalf("schema arity changed: %d -> %d", len(schemaBefore), len(gs))
	}
	for i := range schemaBefore {
		if got.Schema()[i] != schemaBefore[i] {
			t.Fatalf("schema col %d changed: %+v -> %+v", i, schemaBefore[i], got.Schema()[i])
		}
	}
	fj := firstJoin(got)
	if fj == nil {
		t.Fatal("no hash join in rewritten plan")
	}
	var tabs []string
	scanTables(fj, &tabs)
	found := false
	for _, tb := range tabs {
		if tb == "dim" {
			found = true
		}
	}
	if !found {
		t.Fatalf("first join should involve dim (selective), scans: %v", tabs)
	}
	for _, tb := range tabs {
		if tb == "big2" {
			t.Fatalf("first join must not involve big2 (exploding), scans: %v", tabs)
		}
	}
}

// TestGoodOrderKept: with the selective dim join already first, greedy
// agrees with the syntactic order and the node is left untouched — no
// restoration sort, no rowpos scans.
func TestGoodOrderKept(t *testing.T) {
	cat := eventsCatalog(t)
	const q = "SELECT big1.v, dim.label FROM big1 JOIN dim ON big1.dk = dim.dk WHERE dim.dk < 8"
	node := bindSelect(t, cat, q)
	got := Apply(node, 1, 0)
	var check func(n plan.Node)
	check = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			if x.RowPos {
				t.Fatalf("scan of %s gained RowPos without a rewrite", x.Table.Name)
			}
		case *plan.Filter:
			check(x.Child)
		case *plan.Project:
			check(x.Child)
		case *plan.Sort:
			check(x.Child)
		case *plan.HashJoin:
			check(x.Left)
			check(x.Right)
		}
	}
	check(got)
}

// TestBuildSideFlip: probing the big table and building on the small
// one is strictly better; the pass must flip a join written the other
// way around.
func TestBuildSideFlip(t *testing.T) {
	cat := catalog.New()
	big, err := cat.CreateTable("big", catalog.Schema{
		{Name: "k", Type: vector.Int64},
		{Name: "v", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	small, err := cat.CreateTable("small", catalog.Schema{
		{Name: "k", Type: vector.Int64},
		{Name: "s", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 8 * storage.SegmentRows
	fillTable(t, big, rows, func(i int) []vector.Value {
		return []vector.Value{vector.NewInt64(int64(i)), vector.NewFloat64(float64(i))}
	})
	fillTable(t, small, 64, func(i int) []vector.Value {
		return []vector.Value{vector.NewInt64(int64(i)), vector.NewFloat64(float64(i))}
	})

	// Written with big on the right: syntactically it is the build side.
	node := bindSelect(t, cat, "SELECT small.s, big.v FROM small JOIN big ON small.k = big.k")
	got := Apply(node, 1, 0)
	jn := firstJoin(got)
	if jn == nil {
		t.Fatal("no hash join in plan")
	}
	var buildTabs []string
	scanTables(jn.Right, &buildTabs)
	if len(buildTabs) != 1 || buildTabs[0] != "small" {
		t.Fatalf("build side should be small, got %v", buildTabs)
	}

	// Annotation sanity: estimates flow and the join got an estimate.
	if jn.Hints.EstRows <= 0 {
		t.Fatalf("join EstRows not annotated: %d", jn.Hints.EstRows)
	}
}

// TestAnnotateSerialHint: tiny inputs pin operators to serial
// execution; large ones stay parallel-eligible.
func TestAnnotateSerialHint(t *testing.T) {
	cat := eventsCatalog(t)
	node := Apply(bindSelect(t, cat, "SELECT dk, count(*) AS n FROM dim GROUP BY dk"), 8, 0)
	var agg *plan.Aggregate
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Aggregate:
			agg = x
		case *plan.Project:
			walk(x.Child)
		case *plan.Filter:
			walk(x.Child)
		case *plan.Sort:
			walk(x.Child)
		}
	}
	walk(node)
	if agg == nil {
		t.Fatal("no aggregate found")
	}
	if !agg.Hints.Serial {
		t.Fatal("256-row aggregation should be pinned serial")
	}

	node = Apply(bindSelect(t, cat, "SELECT k, count(*) AS n FROM big1 GROUP BY k"), 8, 0)
	agg = nil
	walk(node)
	if agg == nil {
		t.Fatal("no aggregate found")
	}
	if agg.Hints.Serial {
		t.Fatal("multi-segment aggregation should stay parallel-eligible")
	}
}

// TestFanoutHint: a build side far over the memory budget widens the
// spill fan-out beyond the default 16 partitions.
func TestFanoutHint(t *testing.T) {
	cat := eventsCatalog(t)
	// ~8k build rows * (16*2+24) bytes >> 2*16KB budget.
	got := Apply(bindSelect(t, cat, "SELECT big1.v, big2.w FROM big1 JOIN big2 ON big1.k = big2.k"), 1, 16*1024)
	jn := firstJoin(got)
	if jn == nil {
		t.Fatal("no join")
	}
	if jn.Hints.FanoutLog2 <= 4 {
		t.Fatalf("expected widened fan-out, got FanoutLog2=%d", jn.Hints.FanoutLog2)
	}
	if jn.Hints.FanoutLog2 > 8 {
		t.Fatalf("fan-out exceeds cap: %d", jn.Hints.FanoutLog2)
	}
}

// TestAggregateEstimateFromKeys: an aggregation keyed on bare scan
// columns estimates the product of their distinct counts, capped at its
// input; one keyed on an expression keeps the 8·√input guess.
func TestAggregateEstimateFromKeys(t *testing.T) {
	cat := eventsCatalog(t)
	est := func(q string) float64 {
		var agg *plan.Aggregate
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			switch x := n.(type) {
			case *plan.Aggregate:
				agg = x
			case *plan.Project:
				walk(x.Child)
			case *plan.Sort:
				walk(x.Child)
			}
		}
		walk(Apply(bindSelect(t, cat, q), 8, 0))
		if agg == nil {
			t.Fatalf("%s: no aggregate", q)
		}
		return float64(agg.Hints.EstRows)
	}
	near := func(got, want float64) bool { return got >= 0.9*want && got <= 1.1*want }
	if got := est("SELECT k, dk, count(*) AS n FROM big1 GROUP BY k, dk"); !near(got, 7*256) {
		t.Errorf("GROUP BY k, dk: est %v, want about %d", got, 7*256)
	}
	if got := est("SELECT dk, k, sum(v) AS s FROM big1 WHERE v < 1000 GROUP BY dk, k"); got > 1000 || got < 256 {
		t.Errorf("filtered GROUP BY dk, k: est %v, want the filtered input's bound", got)
	}
	in := float64(4 * storage.SegmentRows)
	if got, want := est("SELECT k + 1 AS k1, count(*) AS n FROM big1 GROUP BY k + 1"), 8*math.Sqrt(in); !near(got, want) {
		t.Errorf("GROUP BY k + 1: est %v, want %v", got, want)
	}
}
