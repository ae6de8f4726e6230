package vector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Bool: "BOOLEAN", Int32: "INTEGER", Int64: "BIGINT",
		Float64: "DOUBLE", String: "VARCHAR", Blob: "BLOB",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestTypeFromName(t *testing.T) {
	cases := []struct {
		in   string
		want Type
		ok   bool
	}{
		{"INTEGER", Int32, true},
		{"int", Int32, true},
		{"BIGINT", Int64, true},
		{"double", Float64, true},
		{"FLOAT", Float64, true},
		{"varchar(32)", String, true},
		{"TEXT", String, true},
		{"blob", Blob, true},
		{"BOOLEAN", Bool, true},
		{"nonsense", Invalid, false},
	}
	for _, c := range cases {
		got, ok := TypeFromName(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("TypeFromName(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestCommonNumeric(t *testing.T) {
	if got, ok := CommonNumeric(Int32, Int64); !ok || got != Int64 {
		t.Errorf("CommonNumeric(Int32,Int64) = %v,%v", got, ok)
	}
	if got, ok := CommonNumeric(Int64, Float64); !ok || got != Float64 {
		t.Errorf("CommonNumeric(Int64,Float64) = %v,%v", got, ok)
	}
	if got, ok := CommonNumeric(Int32, Int32); !ok || got != Int32 {
		t.Errorf("CommonNumeric(Int32,Int32) = %v,%v", got, ok)
	}
	if _, ok := CommonNumeric(Int32, String); ok {
		t.Error("CommonNumeric(Int32,String) should fail")
	}
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() not null")
	}
	if Null().Type() != Invalid {
		t.Fatal("Null() type")
	}
	v := NewInt64(42)
	if v.IsNull() || v.Int64() != 42 || v.Type() != Int64 {
		t.Fatalf("NewInt64 got %+v", v)
	}
	if NewFloat64(1.5).Float64() != 1.5 {
		t.Fatal("float roundtrip")
	}
	if NewInt32(7).Float64() != 7 {
		t.Fatal("int-as-float widening")
	}
	if NewString("x").Str() != "x" {
		t.Fatal("string roundtrip")
	}
	if string(NewBlob([]byte{1, 2}).Bytes()) != "\x01\x02" {
		t.Fatal("blob roundtrip")
	}
}

func TestValueEqual(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL = NULL must be false")
	}
	if !NewInt32(3).Equal(NewInt64(3)) {
		t.Error("cross-width numeric equality")
	}
	if !NewInt64(3).Equal(NewFloat64(3)) {
		t.Error("int/float equality")
	}
	if NewString("a").Equal(NewInt64(1)) {
		t.Error("string/int must be unequal")
	}
	if !NewBlob([]byte("ab")).Equal(NewBlob([]byte("ab"))) {
		t.Error("blob equality")
	}
}

func TestValueCast(t *testing.T) {
	cases := []struct {
		in   Value
		to   Type
		want Value
	}{
		{NewInt64(5), Float64, NewFloat64(5)},
		{NewFloat64(5.9), Int32, NewInt32(5)},
		{NewString("12"), Int64, NewInt64(12)},
		{NewString("1.5"), Float64, NewFloat64(1.5)},
		{NewBool(true), Int32, NewInt32(1)},
		{NewInt64(0), Bool, NewBool(false)},
		{NewInt64(7), String, NewString("7")},
		{Null(), Int64, Null()},
	}
	for _, c := range cases {
		got, err := c.in.Cast(c.to)
		if err != nil {
			t.Errorf("Cast(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if c.want.IsNull() {
			if !got.IsNull() {
				t.Errorf("Cast(%v, %v) = %v, want NULL", c.in, c.to, got)
			}
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Cast(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
	if _, err := NewString("abc").Cast(Int64); err == nil {
		t.Error("cast 'abc' to BIGINT should error")
	}
}

func TestValueCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d,%v want -1", a, b, c, err)
		}
	}
	lt(NewInt64(1), NewInt64(2))
	lt(NewInt32(1), NewFloat64(1.5))
	lt(NewString("a"), NewString("b"))
	lt(NewBool(false), NewBool(true))
	if _, err := Null().Compare(NewInt64(1)); err == nil {
		t.Error("comparing NULL should error")
	}
	if _, err := NewString("a").Compare(NewInt64(1)); err == nil {
		t.Error("comparing string with int should error")
	}
}

// TestValueCompareTotalOrderNaN pins the float total order: NaN is
// greater than every non-NaN value (including +Inf) and equal to
// itself, so sort comparators built on Compare stay transitive.
func TestValueCompareTotalOrderNaN(t *testing.T) {
	nan := NewFloat64(math.NaN())
	cmp := func(a, b Value, want int) {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil || c != want {
			t.Errorf("Compare(%v,%v) = %d,%v want %d", a, b, c, err, want)
		}
	}
	cmp(nan, nan, 0)
	cmp(nan, NewFloat64(math.Inf(1)), 1)
	cmp(nan, NewFloat64(math.Inf(-1)), 1)
	cmp(NewFloat64(math.Inf(1)), nan, -1)
	cmp(NewFloat64(math.Inf(-1)), nan, -1)
	cmp(nan, NewFloat64(0), 1)
	cmp(NewFloat64(0), nan, -1)
	// Mixed int/float: the integer side widens to float64 and is
	// never NaN, so NaN still sorts after it.
	cmp(nan, NewInt64(1<<40), 1)
	cmp(NewInt32(-7), nan, -1)
	cmp(NewInt64(3), NewFloat64(3.5), -1)
	// Plain floats keep IEEE ordering.
	cmp(NewFloat64(1.5), NewFloat64(2.5), -1)
	cmp(NewFloat64(math.Inf(-1)), NewFloat64(math.Inf(1)), -1)
}

func TestVectorAppendGet(t *testing.T) {
	v := New(Int64, 4)
	v.AppendValue(NewInt64(1))
	v.AppendValue(Null())
	v.AppendValue(NewInt64(3))
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	if v.Get(0).Int64() != 1 || !v.Get(1).IsNull() || v.Get(2).Int64() != 3 {
		t.Fatalf("contents wrong: %v %v %v", v.Get(0), v.Get(1), v.Get(2))
	}
	if !v.HasNulls() {
		t.Fatal("HasNulls")
	}
}

func TestVectorAppendVectorNullPropagation(t *testing.T) {
	a := FromInt64s([]int64{1, 2})
	b := New(Int64, 2)
	b.AppendValue(Null())
	b.AppendValue(NewInt64(9))
	a.AppendVector(b)
	if a.Len() != 4 {
		t.Fatalf("len = %d", a.Len())
	}
	if a.IsNull(0) || a.IsNull(1) || !a.IsNull(2) || a.IsNull(3) {
		t.Fatalf("null mask wrong")
	}
	if a.Get(3).Int64() != 9 {
		t.Fatalf("row 3 = %v", a.Get(3))
	}
}

func TestVectorSliceGatherClone(t *testing.T) {
	v := FromFloat64s([]float64{0, 1, 2, 3, 4})
	s := v.Slice(1, 4)
	if s.Len() != 3 || s.Get(0).Float64() != 1 || s.Get(2).Float64() != 3 {
		t.Fatalf("slice wrong: %v", s.Float64s())
	}
	g := v.Gather([]int{4, 0, 4})
	if g.Len() != 3 || g.Get(0).Float64() != 4 || g.Get(1).Float64() != 0 || g.Get(2).Float64() != 4 {
		t.Fatalf("gather wrong: %v", g.Float64s())
	}
	c := v.Clone()
	c.Float64s()[0] = 99
	if v.Get(0).Float64() == 99 {
		t.Fatal("clone aliases original")
	}
}

func TestVectorGatherNulls(t *testing.T) {
	v := New(String, 3)
	v.AppendValue(NewString("a"))
	v.AppendValue(Null())
	v.AppendValue(NewString("c"))
	g := v.Gather([]int{1, 2, 1})
	if !g.IsNull(0) || g.IsNull(1) || !g.IsNull(2) {
		t.Fatal("gather null mask wrong")
	}
}

func TestVectorCast(t *testing.T) {
	v := New(Int32, 3)
	v.AppendValue(NewInt32(1))
	v.AppendValue(Null())
	v.AppendValue(NewInt32(3))
	f, err := v.Cast(Float64)
	if err != nil {
		t.Fatal(err)
	}
	if f.Get(0).Float64() != 1 || !f.IsNull(1) || f.Get(2).Float64() != 3 {
		t.Fatalf("cast result wrong")
	}
}

func TestAsFloat64sAndAsInt32s(t *testing.T) {
	v := FromInt64s([]int64{1, 2, 3})
	f, err := v.AsFloat64s()
	if err != nil || len(f) != 3 || f[2] != 3 {
		t.Fatalf("AsFloat64s: %v %v", f, err)
	}
	i, err := FromFloat64s([]float64{1.9, 2.1}).AsInt32s()
	if err != nil || i[0] != 1 || i[1] != 2 {
		t.Fatalf("AsInt32s: %v %v", i, err)
	}
	if _, err := FromStrings([]string{"x"}).AsFloat64s(); err == nil {
		t.Error("AsFloat64s on strings should error")
	}
}

func TestChunkBasics(t *testing.T) {
	c := NewChunk(FromInt64s([]int64{1, 2}), FromStrings([]string{"a", "b"}))
	if c.NumCols() != 2 || c.NumRows() != 2 {
		t.Fatalf("dims %d x %d", c.NumCols(), c.NumRows())
	}
	row := c.Row(1)
	if row[0].Int64() != 2 || row[1].Str() != "b" {
		t.Fatalf("row = %v", row)
	}
	g := c.Gather([]int{1})
	if g.NumRows() != 1 || g.Col(0).Get(0).Int64() != 2 {
		t.Fatal("chunk gather")
	}
	s := c.Slice(0, 1)
	if s.NumRows() != 1 || s.Col(1).Get(0).Str() != "a" {
		t.Fatal("chunk slice")
	}
}

func TestTableBasics(t *testing.T) {
	tab, err := NewTable([]string{"id", "name"},
		[]*Vector{FromInt64s([]int64{1}), FromStrings([]string{"x"})})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 || tab.NumCols() != 2 {
		t.Fatal("dims")
	}
	if tab.ColumnIndex("name") != 1 || tab.ColumnIndex("zzz") != -1 {
		t.Fatal("ColumnIndex")
	}
	if tab.Column("id").Get(0).Int64() != 1 {
		t.Fatal("Column")
	}
	if err := tab.AppendChunk(NewChunk(FromInt64s([]int64{2}), FromStrings([]string{"y"}))); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.Column("name").Get(1).Str() != "y" {
		t.Fatal("AppendChunk")
	}
	if _, err := NewTable([]string{"a"}, nil); err == nil {
		t.Error("mismatched names/cols should error")
	}
}

// Property: Gather(identity) preserves all values for int64 vectors.
func TestQuickGatherIdentity(t *testing.T) {
	f := func(data []int64) bool {
		v := FromInt64s(data)
		sel := make([]int, len(data))
		for i := range sel {
			sel[i] = i
		}
		g := v.Gather(sel)
		if g.Len() != len(data) {
			return false
		}
		for i := range data {
			if g.Int64s()[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: value cast Int64->Float64->Int64 is lossless for values
// representable in float64 (|x| < 2^53).
func TestQuickCastRoundTrip(t *testing.T) {
	f := func(x int32) bool {
		v := NewInt64(int64(x))
		fv, err := v.Cast(Float64)
		if err != nil {
			return false
		}
		back, err := fv.Cast(Int64)
		if err != nil {
			return false
		}
		return back.Int64() == int64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AppendVector concatenation preserves length and order.
func TestQuickAppendVector(t *testing.T) {
	f := func(a, b []float64) bool {
		va := FromFloat64s(append([]float64(nil), a...))
		vb := FromFloat64s(b)
		va.AppendVector(vb)
		if va.Len() != len(a)+len(b) {
			return false
		}
		for i, x := range a {
			if va.Float64s()[i] != x && !(x != x && va.Float64s()[i] != va.Float64s()[i]) {
				return false
			}
		}
		for i, x := range b {
			y := va.Float64s()[len(a)+i]
			if y != x && !(x != x && y != y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// castBoxed is Vector.Cast as it was for every cast but the widenings:
// one boxed Value.Cast and AppendValue per row.
func castBoxed(v *Vector, to Type) (*Vector, error) {
	out := New(to, v.Len())
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendValue(Null())
			continue
		}
		cv, err := v.Get(i).Cast(to)
		if err != nil {
			return nil, fmt.Errorf("cast row %d: %w", i, err)
		}
		out.AppendValue(cv)
	}
	return out, nil
}

// TestNarrowingCastMatchesBoxed: the typed BIGINT→INTEGER and
// DOUBLE→INTEGER/BIGINT loops give the boxed loop's values, NULLs and
// errors, row numbers included, over vectors drawn from the edges of
// each range (NaN, ±Inf, ±2^63, the int32 bounds and one past them,
// fractions truncated toward zero) with and without NULLs.
func TestNarrowingCastMatchesBoxed(t *testing.T) {
	ints := []int64{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64, math.MinInt64, 12345}
	floats := []float64{0, -0.9, 0.9, 2.5, -2.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxInt32, math.MinInt32, math.MaxInt32 + 0.5, math.MinInt32 - 0.5, math.MaxInt32 + 1, math.MinInt32 - 1,
		-math.MinInt64, math.MinInt64, math.Nextafter(-math.MinInt64, 0), math.Nextafter(math.MinInt64, 0), 1e300, 42}
	rng := rand.New(rand.NewSource(3))
	cast := 0 // the casts that succeeded
	for round := range 600 {
		n := 1 + rng.Intn(12)
		nullFrac := []float64{0, 0.3, 1}[round%3]
		from := []Type{Int64, Float64}[round/3%2]
		v := New(from, n)
		for range n {
			switch {
			case rng.Float64() < nullFrac:
				v.AppendValue(Null())
			case from == Int64:
				v.AppendValue(NewInt64(ints[rng.Intn(len(ints))]))
			default:
				v.AppendValue(NewFloat64(floats[rng.Intn(len(floats))]))
			}
		}
		for _, to := range []Type{Int32, Int64} {
			if from == Int64 && to == Int64 {
				continue
			}
			got, gerr := v.Cast(to)
			want, werr := castBoxed(v, to)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("round %d %s→%s: error %v, boxed %v", round, from, to, gerr, werr)
			}
			if werr != nil {
				continue
			}
			cast++
			if got.Type() != to || got.Len() != n {
				t.Fatalf("round %d %s→%s: %s[%d]", round, from, to, got.Type(), got.Len())
			}
			for i := range n {
				if got.IsNull(i) != want.IsNull(i) || !got.IsNull(i) && !got.Get(i).Equal(want.Get(i)) {
					t.Fatalf("round %d %s→%s row %d: %v, boxed %v", round, from, to, i, got.Get(i), want.Get(i))
				}
			}
		}
	}
	if cast < 200 {
		t.Fatalf("only %d of the casts succeeded", cast)
	}
}
