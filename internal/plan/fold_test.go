package plan

import (
	"math"
	"testing"

	"vexdb/internal/core"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// foldInput is FuzzFold's chunk: one column of each type, heavy with
// NULLs, NaN, ±0, extremes and integers shifted past 32 bits, and the
// scope naming them a … e.
func foldInput() (*vector.Chunk, *scope) {
	cols := []*vector.Vector{
		vector.FromInt32s([]int32{0, -1, 1, 0, 7, math.MinInt32, math.MaxInt32, 0}),
		vector.FromInt64s([]int64{0, 1 << 44, -3 << 44, 0, 5, -1, math.MinInt64, 2}),
		vector.FromFloat64s([]float64{math.NaN(), math.Copysign(0, -1), 0, 0, 1.5, math.Inf(-1), math.Inf(1), 1 << 44}),
		vector.FromStrings([]string{"", "a", "3", "", "-0", "NaN", "17592186044416", "x"}),
		vector.FromBools([]bool{true, false, false, true, false, false, true, false}),
	}
	sc := &scope{}
	for i, c := range cols {
		for r := i % 3; r < c.Len(); r += 3 {
			c.SetNull(r)
		}
		sc.add("", string(rune('a'+i)), c.Type())
	}
	return vector.NewChunk(cols...), sc
}

var (
	foldLits = []vector.Value{
		vector.Null(), vector.NewInt64(0), vector.NewInt64(1 << 44), vector.NewInt64(-3), vector.NewInt64(math.MaxInt64),
		vector.NewFloat64(math.NaN()), vector.NewFloat64(math.Copysign(0, -1)), vector.NewFloat64(0), vector.NewFloat64(2.5),
		vector.NewString(""), vector.NewString("NaN"), vector.NewString("-0"), vector.NewString("12"), vector.NewString("x"),
		vector.NewBool(true), vector.NewBool(false),
	}
	foldTypes = []vector.Type{vector.Bool, vector.Int32, vector.Int64, vector.Float64, vector.String}
)

// foldGen turns fuzz bytes into a SQL expression over a … e.
type foldGen struct{ data []byte }

func (g *foldGen) next(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *foldGen) expr(depth int) sql.Expr {
	k := g.next(9)
	if depth == 0 {
		k %= 2
	}
	switch k {
	case 0:
		return &sql.Literal{Value: foldLits[g.next(len(foldLits))]}
	case 1:
		return &sql.ColumnRef{Name: string(rune('a' + g.next(5)))}
	case 2:
		return &sql.BinaryExpr{Op: sql.BinaryOp(g.next(int(sql.OpConcat) + 1)), Left: g.expr(depth - 1), Right: g.expr(depth - 1)}
	case 3:
		return &sql.UnaryExpr{Neg: g.next(2) == 0, Operand: g.expr(depth - 1)}
	case 4:
		return &sql.IsNullExpr{Negate: g.next(2) == 0, Operand: g.expr(depth - 1)}
	case 5:
		return &sql.CastExpr{To: foldTypes[g.next(len(foldTypes))], Operand: g.expr(depth - 1)}
	case 6:
		in := &sql.InExpr{Negate: g.next(2) == 0, Operand: g.expr(depth - 1)}
		for n := 1 + g.next(3); n > 0; n-- {
			in.List = append(in.List, g.expr(depth-1))
		}
		return in
	case 7:
		c := &sql.CaseExpr{}
		if g.next(2) == 0 {
			c.Operand = g.expr(depth - 1)
		}
		for n := 1 + g.next(2); n > 0; n-- {
			c.Whens = append(c.Whens, sql.WhenClause{Cond: g.expr(depth - 1), Then: g.expr(depth - 1)})
		}
		if g.next(2) == 0 {
			c.Else = g.expr(depth - 1)
		}
		return c
	}
	return &sql.FuncCall{Name: "abs", Args: []sql.Expr{g.expr(depth - 1)}}
}

// FuzzFold: a bound expression evaluates to the same column whether its
// constant subtrees are folded or not — the same type, NULL mask and
// values bit for bit, and the same error or none.
func FuzzFold(f *testing.F) {
	for _, seed := range [][]byte{
		{2, 0, 0, 1, 0, 1, 1},          // NULL + b
		{2, 5, 2, 0, 0, 2, 0, 4, 1, 2}, // (0 + 1) = (b)
		{5, 1, 2, 3, 0, 1, 0, 3},       // CAST((-NaN) / 1<<44 AS INTEGER)
		{7, 0, 0, 0, 1, 2, 4, 0, 1, 0, 2, 0, 1, 0},
		{6, 0, 0, 5, 2, 0, 1, 0, 0, 0, 0, 14},
		{8, 2, 3, 0, 0, 5, 0, 4},
		{2, 11, 3, 1, 0, 0, 4, 1, 4},
	} {
		f.Add(seed)
	}
	ch, sc := foldInput()
	reg := core.NewRegistry()
	core.RegisterBuiltins(reg)
	b := &Binder{Registry: reg}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &foldGen{data: data}
		x, err := b.bindExpr(g.expr(4), sc)
		if err != nil {
			return // not a well-typed expression
		}
		e := settle(x, vector.Float64)
		folded := fold(e)
		if folded.Type() != e.Type() {
			t.Fatalf("%s folds to %s of type %s, not %s", ExprString(e), ExprString(folded), folded.Type(), e.Type())
		}
		want, wantErr := Evaluate(e, ch)
		if wantErr == nil && want.Type() != e.Type() {
			t.Fatalf("%s evaluates to %s, not its type %s", ExprString(e), want.Type(), e.Type())
		}
		got, gotErr := Evaluate(folded, ch)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: unfolded fails with %v, folded %s with %v", ExprString(e), wantErr, ExprString(folded), gotErr)
			}
			return
		}
		if got.Type() != want.Type() || got.Len() != want.Len() {
			t.Fatalf("%s: %d rows of %s unfolded, %d of %s folded", ExprString(e), want.Len(), want.Type(), got.Len(), got.Type())
		}
		for r := 0; r < want.Len(); r++ {
			w, v := want.Get(r), got.Get(r)
			same := w.IsNull() == v.IsNull()
			if same && !w.IsNull() {
				switch want.Type() {
				case vector.Float64:
					same = math.Float64bits(w.Float64()) == math.Float64bits(v.Float64())
				case vector.Bool:
					same = w.Bool() == v.Bool()
				case vector.Int32, vector.Int64:
					same = w.Int64() == v.Int64()
				default:
					same = w.Str() == v.Str()
				}
			}
			if !same {
				t.Fatalf("%s row %d: %v unfolded, %v folded (%s)", ExprString(e), r, w, v, ExprString(folded))
			}
		}
	})
}
