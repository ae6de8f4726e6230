package plan

import (
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// placedFilters returns each base-table scan under n, in syntactic
// order, with the Filter directly over it (nil where there is none).
func placedFilters(n Node) (scans []*Scan, filters []*Filter) {
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scans, filters = append(scans, x), append(filters, nil)
		case *Filter:
			if s, ok := x.Child.(*Scan); ok {
				scans, filters = append(scans, s), append(filters, x)
				return
			}
			walk(x.Child)
		case *Project:
			walk(x.Child)
		case *Aggregate:
			walk(x.Child)
		case *Sort:
			walk(x.Child)
		case *Limit:
			walk(x.Child)
		case *Distinct:
			walk(x.Child)
		case *HashJoin:
			walk(x.Left)
			walk(x.Right)
		}
	}
	walk(n)
	return scans, filters
}

// whereAbove returns the WHERE left above the join under the select
// list, nil when none is.
func whereAbove(n Node) Expr {
	if p, ok := n.(*Project); ok {
		if f, ok := p.Child.(*Filter); ok {
			if _, ok := f.Child.(*HashJoin); ok {
				return f.Pred
			}
		}
	}
	return nil
}

// checkKernels asserts that f (nil: no filter) is exactly the kernels
// want, in order, on the filter's input positions.
func checkKernels(t *testing.T, what string, f *Filter, want []ScanPredicate) {
	t.Helper()
	var got []ScanPredicate
	if f != nil {
		var residual []Expr
		if got, residual = SplitFilter(f.Pred); len(residual) > 0 {
			t.Errorf("%s: residual %s placed on a scan", what, ExprString(AndAll(residual)))
		}
	}
	if !sameKernels(got, want) {
		t.Errorf("%s: kernels %+v, want %+v", what, got, want)
	}
}

func sameKernels(got, want []ScanPredicate) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if w := want[i]; p.Col != w.Col || p.Op != w.Op || !p.Val.Equal(w.Val) {
			return false
		}
	}
	return true
}

// The WHERE over one table is the filter the executor fuses into the
// scan; its kernels, the conjuncts zone maps can refute, are every
// `column <op> constant` of comparable types with the column on the
// left: <> and BOOLEAN included, disjunctions, expressions,
// column-vs-column and NULL constants not.
func TestScanPredicatePushdown(t *testing.T) {
	cat := testCatalog(t)
	if _, err := cat.CreateTable("flags", catalog.Schema{{Name: "k", Type: vector.Int64}, {Name: "f", Type: vector.Bool}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		want  []ScanPredicate
	}{
		{"SELECT a FROM wide WHERE a > 5", []ScanPredicate{{Col: 0, Op: sql.OpGt, Val: vector.NewInt64(5)}}},
		// Flipped operand: 10 >= d means d <= 10.
		{"SELECT a FROM wide WHERE 10 >= d", []ScanPredicate{{Col: 3, Op: sql.OpLe, Val: vector.NewInt64(10)}}},
		{"SELECT a FROM wide WHERE a >= 1 AND c = 'x' AND b < 2.5", []ScanPredicate{
			{Col: 0, Op: sql.OpGe, Val: vector.NewInt64(1)},
			{Col: 2, Op: sql.OpEq, Val: vector.NewString("x")},
			{Col: 1, Op: sql.OpLt, Val: vector.NewFloat64(2.5)},
		}},
		{"SELECT a FROM wide WHERE a <> 5", []ScanPredicate{{Col: 0, Op: sql.OpNe, Val: vector.NewInt64(5)}}},
		{"SELECT k FROM flags WHERE f = TRUE", []ScanPredicate{{Col: 1, Op: sql.OpEq, Val: vector.NewBool(true)}}},
		{"SELECT a FROM wide WHERE a > 5 OR d > 5", nil},            // disjunction
		{"SELECT a FROM wide WHERE a + 1 > 5", nil},                 // not col-vs-const
		{"SELECT a FROM wide WHERE a > d", nil},                     // col-vs-col
		{"SELECT a FROM wide WHERE CAST(c AS INTEGER) = NULL", nil}, // NULL beside an operand that may raise: kept, no kernel
		{"SELECT a FROM wide WHERE c > 'm' AND a < 9", []ScanPredicate{
			{Col: 2, Op: sql.OpGt, Val: vector.NewString("m")},
			{Col: 0, Op: sql.OpLt, Val: vector.NewInt64(9)},
		}},
	}
	for _, c := range cases {
		_, filters := placedFilters(bind(t, cat, c.query))
		if len(filters) != 1 || filters[0] == nil {
			t.Fatalf("%q: no filter over the scan", c.query)
		}
		if kernels, _ := SplitFilter(filters[0].Pred); !sameKernels(kernels, c.want) {
			t.Errorf("%q: kernels %+v, want %+v", c.query, kernels, c.want)
		}
	}
}

// Prune keeps the filter directly over its scan, reading the column
// the filter needs even where the select list does not, and its kernel
// then names the column's projected position.
func TestScanPredicatesSurvivePrune(t *testing.T) {
	cat := testCatalog(t)
	scans, filters := placedFilters(Prune(bind(t, cat, "SELECT b FROM wide WHERE d > 5")))
	if len(scans) != 1 || filters[0] == nil {
		t.Fatal("prune lost the filter over the scan")
	}
	if p := scans[0].Projection; len(p) != 2 || p[0] != 1 || p[1] != 3 {
		t.Fatalf("projection %v, want [1 3]", p)
	}
	checkKernels(t, "pruned", filters[0], []ScanPredicate{{Col: 1, Op: sql.OpGt, Val: vector.NewInt64(5)}})
}

// Under a join, each kernel conjunct moves onto the scan owning its
// column, at the column's position in that scan; the rest stays above.
// Under a LEFT join's right input it is copied: the WHERE above keeps
// it for the NULL-padded rows. A WHERE with a conjunct that may raise
// places nothing.
func TestPushdownThroughJoin(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT wide.a FROM wide JOIN dim ON wide.a = dim.k WHERE wide.d > 5 AND dim.weight <= 2.5 AND wide.b + 1 > 2"
	node := bind(t, cat, q)
	_, filters := placedFilters(node)
	checkKernels(t, "wide", filters[0], []ScanPredicate{{Col: 3, Op: sql.OpGt, Val: vector.NewInt64(5)}})
	checkKernels(t, "dim", filters[1], []ScanPredicate{{Col: 2, Op: sql.OpLe, Val: vector.NewFloat64(2.5)}})
	if above := whereAbove(node); above == nil || ExprString(above) != "((b + 1) > 2)" {
		t.Fatalf("above the join: %v, want the one residual", above)
	}

	node = bind(t, cat, "SELECT wide.a FROM wide LEFT JOIN dim ON wide.a = dim.k WHERE dim.weight > 1 AND wide.d > 5")
	_, filters = placedFilters(node)
	checkKernels(t, "left input", filters[0], []ScanPredicate{{Col: 3, Op: sql.OpGt, Val: vector.NewInt64(5)}})
	checkKernels(t, "right input", filters[1], []ScanPredicate{{Col: 2, Op: sql.OpGt, Val: vector.NewInt64(1)}})
	if above := whereAbove(node); above == nil || ExprString(above) != "(weight > 1)" {
		t.Fatalf("above the LEFT join: %v, want the copied conjunct alone", above)
	}

	for _, q := range []string{
		"SELECT wide.a FROM wide JOIN dim ON wide.a = dim.k WHERE wide.d > 5 AND CAST(dim.label AS INTEGER) > 1",
		"SELECT wide.a FROM wide JOIN dim ON wide.a = dim.k WHERE wide.d > 5 AND CASE WHEN wide.b > 0 THEN wide.a ELSE wide.c END = 1",
		"SELECT wide.a FROM wide JOIN dim ON wide.a = dim.k WHERE wide.d > 5 AND wide.a + 1 > 2", // integer + may leave its range
	} {
		node = bind(t, cat, q)
		if _, filters := placedFilters(node); filters[0] != nil || filters[1] != nil {
			t.Fatalf("%q: a conjunct was placed beside one that may raise", q)
		}
		if len(Conjuncts(whereAbove(node))) != 2 {
			t.Fatalf("%q: the WHERE above lost a conjunct", q)
		}
	}
}

// Through nested joins each conjunct finds its scan; a subquery's
// side is left alone, its conjunct kept above.
func TestPushdownThroughNestedJoin(t *testing.T) {
	cat := testCatalog(t)
	node := bind(t, cat,
		"SELECT wide.a FROM wide JOIN dim ON wide.a = dim.k JOIN wide w2 ON dim.k = w2.a "+
			"WHERE dim.weight > 0.5 AND w2.d = 7 AND dim.weight < 9")
	scans, filters := placedFilters(node)
	if len(scans) != 3 {
		t.Fatalf("found %d scans", len(scans))
	}
	checkKernels(t, "wide", filters[0], nil)
	checkKernels(t, "dim", filters[1], []ScanPredicate{
		{Col: 2, Op: sql.OpGt, Val: vector.NewFloat64(0.5)},
		{Col: 2, Op: sql.OpLt, Val: vector.NewInt64(9)},
	})
	checkKernels(t, "w2", filters[2], []ScanPredicate{{Col: 3, Op: sql.OpEq, Val: vector.NewInt64(7)}})
	if whereAbove(node) != nil {
		t.Fatal("a moved conjunct stayed above")
	}

	node = bind(t, cat, "SELECT s.a FROM (SELECT a FROM wide) s JOIN dim ON s.a = dim.k WHERE s.a > 3 AND dim.k < 4")
	_, filters = placedFilters(node)
	checkKernels(t, "subquery", filters[0], nil)
	checkKernels(t, "dim", filters[1], []ScanPredicate{{Col: 0, Op: sql.OpLt, Val: vector.NewInt64(4)}})
	if above := whereAbove(node); above == nil || ExprString(above) != "(a > 3)" {
		t.Fatalf("above the join: %v, want the subquery's conjunct", above)
	}
}

// Placed filters stay directly over their scans through Prune, their
// kernels on the projected positions.
func TestJoinPushdownSurvivesPrune(t *testing.T) {
	cat := testCatalog(t)
	scans, filters := placedFilters(Prune(bind(t, cat,
		"SELECT wide.a FROM wide JOIN dim ON wide.a = dim.k WHERE wide.d > 5 AND dim.label = 'x'")))
	if p := scans[0].Projection; len(p) != 2 || p[0] != 0 || p[1] != 3 {
		t.Fatalf("wide projection %v, want [0 3]", p)
	}
	checkKernels(t, "wide", filters[0], []ScanPredicate{{Col: 1, Op: sql.OpGt, Val: vector.NewInt64(5)}})
	if p := scans[1].Projection; len(p) != 2 || p[0] != 0 || p[1] != 1 {
		t.Fatalf("dim projection %v, want [0 1]", p)
	}
	checkKernels(t, "dim", filters[1], []ScanPredicate{{Col: 1, Op: sql.OpEq, Val: vector.NewString("x")}})
}
