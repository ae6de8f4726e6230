package exec

import (
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// evalOver evaluates a bound expression over a one-chunk input.
func evalOver(t *testing.T, e plan.Expr, cols ...*vector.Vector) *vector.Vector {
	t.Helper()
	out, err := plan.Evaluate(e, vector.NewChunk(cols...))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func colRef(i int, typ vector.Type) *plan.ColRef {
	return &plan.ColRef{Idx: i, Typ: typ}
}

func TestEvalArithmeticNullPropagation(t *testing.T) {
	a := vector.New(vector.Int64, 3)
	a.AppendValue(vector.NewInt64(10))
	a.AppendValue(vector.Null())
	a.AppendValue(vector.NewInt64(30))
	b := vector.FromInt64s([]int64{1, 2, 3})
	e := &plan.BinOp{Op: sql.OpAdd, Left: colRef(0, vector.Int64), Right: colRef(1, vector.Int64), Typ: vector.Int64}
	out := evalOver(t, e, a, b)
	if out.Get(0).Int64() != 11 || !out.IsNull(1) || out.Get(2).Int64() != 33 {
		t.Fatalf("add: %v %v %v", out.Get(0), out.Get(1), out.Get(2))
	}
}

func TestEvalMixedWidthArithmetic(t *testing.T) {
	a := vector.FromInt32s([]int32{7})
	b := vector.FromFloat64s([]float64{0.5})
	e := &plan.BinOp{Op: sql.OpMul, Left: colRef(0, vector.Int32), Right: colRef(1, vector.Float64), Typ: vector.Float64}
	out := evalOver(t, e, a, b)
	if out.Get(0).Float64() != 3.5 {
		t.Fatalf("7 * 0.5 = %v", out.Get(0))
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	// a: [T, F, NULL], b: [NULL, NULL, NULL]
	a := vector.New(vector.Bool, 3)
	a.AppendValue(vector.NewBool(true))
	a.AppendValue(vector.NewBool(false))
	a.AppendValue(vector.Null())
	b := vector.New(vector.Bool, 3)
	for i := 0; i < 3; i++ {
		b.AppendValue(vector.Null())
	}
	and := &plan.BinOp{Op: sql.OpAnd, Left: colRef(0, vector.Bool), Right: colRef(1, vector.Bool), Typ: vector.Bool}
	out := evalOver(t, and, a, b)
	// T AND NULL = NULL; F AND NULL = FALSE; NULL AND NULL = NULL.
	if !out.IsNull(0) {
		t.Error("T AND NULL must be NULL")
	}
	if out.IsNull(1) || out.Bools()[1] {
		t.Error("F AND NULL must be FALSE")
	}
	if !out.IsNull(2) {
		t.Error("NULL AND NULL must be NULL")
	}
	or := &plan.BinOp{Op: sql.OpOr, Left: colRef(0, vector.Bool), Right: colRef(1, vector.Bool), Typ: vector.Bool}
	out = evalOver(t, or, a, b)
	// T OR NULL = TRUE; F OR NULL = NULL.
	if out.IsNull(0) || !out.Bools()[0] {
		t.Error("T OR NULL must be TRUE")
	}
	if !out.IsNull(1) {
		t.Error("F OR NULL must be NULL")
	}
}

func TestEvalComparisonWithNullConstant(t *testing.T) {
	a := vector.FromInt64s([]int64{1, 2})
	e := &plan.BinOp{Op: sql.OpEq, Left: colRef(0, vector.Int64),
		Right: &plan.Const{Val: vector.Null(), Typ: vector.Int64}, Typ: vector.Bool}
	out := evalOver(t, e, a)
	if !out.IsNull(0) || !out.IsNull(1) {
		t.Fatal("x = NULL must be NULL")
	}
}

func TestEvalInWithNulls(t *testing.T) {
	a := vector.FromInt64s([]int64{1, 5})
	in := &plan.In{
		Operand: colRef(0, vector.Int64),
		List: []plan.Expr{
			&plan.Const{Val: vector.NewInt64(1), Typ: vector.Int64},
			&plan.Const{Val: vector.Null(), Typ: vector.Int64},
		},
	}
	out := evalOver(t, in, a)
	// 1 IN (1, NULL) = TRUE; 5 IN (1, NULL) = NULL (unknown).
	if out.IsNull(0) || !out.Bools()[0] {
		t.Error("1 IN (1, NULL) must be TRUE")
	}
	if !out.IsNull(1) {
		t.Error("5 IN (1, NULL) must be NULL")
	}
}

func TestEvalConst(t *testing.T) {
	e := &plan.BinOp{Op: sql.OpMul,
		Left:  &plan.Const{Val: vector.NewInt64(6), Typ: vector.Int64},
		Right: &plan.Const{Val: vector.NewInt64(7), Typ: vector.Int64},
		Typ:   vector.Int64}
	v, err := plan.EvalConst(e)
	if err != nil || v.Int64() != 42 {
		t.Fatalf("EvalConst: %v %v", v, err)
	}
}

// buildTable creates a catalog table with data for operator tests.
func buildTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	cat := catalog.New()
	tab, err := cat.CreateTable("t", catalog.Schema{
		{Name: "id", Type: vector.Int64},
		{Name: "v", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, rows)
	vs := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		vs[i] = float64(i) * 0.5
	}
	if err := tab.Data.AppendChunk(vector.NewChunk(
		vector.FromInt64s(ids), vector.FromFloat64s(vs))); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunScanFilterLimit(t *testing.T) {
	tab := buildTable(t, 5000)
	node := plan.Node(&plan.Limit{
		Count:  10,
		Offset: 5,
		Child: &plan.Filter{
			Pred: &plan.BinOp{Op: sql.OpGe, Left: colRef(0, vector.Int64),
				Right: &plan.Const{Val: vector.NewInt64(4000), Typ: vector.Int64}, Typ: vector.Bool},
			Child: &plan.Scan{Table: tab},
		},
	})
	out, err := Run(node, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Cols[0].Int64s()[0] != 4005 {
		t.Fatalf("offset wrong: first id = %d", out.Cols[0].Int64s()[0])
	}
}

func TestSortNullsOrdering(t *testing.T) {
	cat := catalog.New()
	tab, err := cat.CreateTable("s", catalog.Schema{{Name: "x", Type: vector.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	col := vector.New(vector.Int64, 4)
	col.AppendValue(vector.NewInt64(2))
	col.AppendValue(vector.Null())
	col.AppendValue(vector.NewInt64(1))
	col.AppendValue(vector.NewInt64(3))
	if err := tab.Data.AppendChunk(vector.NewChunk(col)); err != nil {
		t.Fatal(err)
	}
	asc := &plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(0, vector.Int64)}},
		Child: &plan.Scan{Table: tab},
	}
	out, err := Run(asc, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	// Ascending: 1, 2, 3, NULL (nulls last).
	if out.Cols[0].Int64s()[0] != 1 || !out.Cols[0].IsNull(3) {
		t.Fatalf("asc order wrong: %v nulls=%v", out.Cols[0].Int64s(), out.Cols[0].Nulls())
	}
	desc := &plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(0, vector.Int64), Desc: true}},
		Child: &plan.Scan{Table: tab},
	}
	out, err = Run(desc, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	// Descending: NULL first, then 3, 2, 1.
	if !out.Cols[0].IsNull(0) || out.Cols[0].Int64s()[1] != 3 {
		t.Fatal("desc order wrong")
	}
}

func TestFilterEliminatesAll(t *testing.T) {
	tab := buildTable(t, 100)
	node := plan.Node(&plan.Filter{
		Pred: &plan.BinOp{Op: sql.OpLt, Left: colRef(0, vector.Int64),
			Right: &plan.Const{Val: vector.NewInt64(-1), Typ: vector.Int64}, Typ: vector.Bool},
		Child: &plan.Scan{Table: tab},
	})
	out, err := Run(node, &Context{})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatal("filter should eliminate all rows")
	}
}

func TestAppendRowKeyInjective(t *testing.T) {
	// Different values of different types must never produce the same
	// key prefix-freely within a column.
	a := vector.FromInt64s([]int64{1, 256})
	k1 := appendRowKey(nil, a, 0)
	k2 := appendRowKey(nil, a, 1)
	if string(k1) == string(k2) {
		t.Fatal("distinct int keys collide")
	}
	s := vector.FromStrings([]string{"ab", "a"})
	k3 := appendRowKey(nil, s, 0)
	k4 := appendRowKey(nil, s, 1)
	if string(k3) == string(k4) {
		t.Fatal("distinct string keys collide")
	}
	n := vector.New(vector.Int64, 1)
	n.AppendValue(vector.Null())
	k5 := appendRowKey(nil, n, 0)
	if string(k5) == string(k1) {
		t.Fatal("null collides with value")
	}
}
