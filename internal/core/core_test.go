package core

import (
	"fmt"
	"strings"
	"testing"

	"vexdb/internal/vector"
)

func doubler() *ScalarFunc {
	return &ScalarFunc{
		Name:       "dbl",
		Arity:      1,
		Parallel:   true,
		ReturnType: FixedReturn(vector.Float64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			in, err := args[0].AsFloat64s()
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(in))
			for i, v := range in {
				out[i] = 2 * v
			}
			return vector.FromFloat64s(out), nil
		},
	}
}

func TestRegistryScalar(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterScalar(doubler()); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Scalar("DBL"); !ok {
		t.Fatal("lookup must be case-insensitive")
	}
	if _, ok := r.Scalar("nope"); ok {
		t.Fatal("missing function found")
	}
	if err := r.RegisterScalar(&ScalarFunc{Name: ""}); err == nil {
		t.Fatal("invalid registration should fail")
	}
	if len(r.ScalarNames()) != 1 {
		t.Fatal("ScalarNames")
	}
}

func TestRegistryTable(t *testing.T) {
	r := NewRegistry()
	fn := &TableFunc{
		Name:    "one",
		Columns: []ColumnDecl{{Name: "x", Type: vector.Int64}},
		Fn: func([]TableArg, int) (*vector.Table, error) {
			return vector.NewTable([]string{"x"}, []*vector.Vector{vector.FromInt64s([]int64{1})})
		},
	}
	if err := r.RegisterTable(fn); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Table("ONE"); !ok {
		t.Fatal("case-insensitive table lookup")
	}
	if err := r.RegisterTable(&TableFunc{Name: "bad"}); err == nil {
		t.Fatal("invalid table registration should fail")
	}
}

func TestCallNonParallelFallsBack(t *testing.T) {
	f := doubler()
	f.Parallel = false
	calls := 0
	inner := f.Eval
	f.Eval = func(args []*vector.Vector) (*vector.Vector, error) {
		calls++
		return inner(args)
	}
	args := []*vector.Vector{vector.FromFloat64s(make([]float64, 100))}
	if _, err := f.Call(vector.Float64, args, 100); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("non-parallel UDF called %d times, want 1", calls)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	f := &ScalarFunc{
		Name: "boom", Arity: 1, Parallel: true,
		ReturnType: FixedReturn(vector.Int64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			return nil, fmt.Errorf("kaboom")
		},
	}
	args := []*vector.Vector{vector.FromInt64s(make([]int64, 100))}
	if _, err := f.Call(vector.Int64, args, 100); err == nil || err.Error() != "UDF boom: kaboom" {
		t.Fatalf("error %v, want Eval's, named", err)
	}
}

// TestCallChecksAndCasts: a result of the wrong length fails the call;
// a result of another
// type is cast to the bound type, and its NULLs survive; a BIGINT past
// INTEGER's range fails the cast rather than wrapping.
func TestCallChecksAndCasts(t *testing.T) {
	extra := &ScalarFunc{
		Name: "extra", Arity: 1, Parallel: true,
		ReturnType: FixedReturn(vector.Int64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			return vector.FromInt64s(make([]int64, args[0].Len()+1)), nil
		},
	}
	shifted := func(name string, by int64) *ScalarFunc {
		return &ScalarFunc{
			Name: name, Arity: 1, Parallel: true,
			ReturnType: FixedReturn(vector.Int32),
			Eval: func(args []*vector.Vector) (*vector.Vector, error) {
				out := vector.New(vector.Int64, args[0].Len())
				for i := range args[0].Len() {
					if args[0].IsNull(i) {
						out.AppendValue(vector.Null())
					} else {
						out.AppendValue(vector.NewInt64(args[0].Int64s()[i] + by))
					}
				}
				return out, nil
			},
		}
	}
	wide, over := shifted("wide", 0), shifted("over", 1<<32)
	in := vector.New(vector.Int64, 5)
	for _, v := range []vector.Value{vector.NewInt64(1), vector.Null(), vector.NewInt64(-3), vector.NewInt64(4), vector.NewInt64(5)} {
		in.AppendValue(v)
	}
	args := []*vector.Vector{in}
	if _, err := extra.Call(vector.Int64, args, 5); err == nil || err.Error() != "UDF extra: result row count differs from the input's" {
		t.Fatalf("error %v", err)
	}
	got, err := wide.Call(vector.Int32, args, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type() != vector.Int32 || got.Len() != 5 || !got.IsNull(1) || got.Int32s()[2] != -3 || got.Int32s()[4] != 5 {
		t.Fatalf("%s[%d] %v", got.Type(), got.Len(), got)
	}
	if _, err := over.Call(vector.Int32, args, 5); err == nil || !strings.Contains(err.Error(), "cast 4294967297 to INTEGER: out of range") {
		t.Fatalf("out-of-range result: error %v", err)
	}
}

func TestBuiltins(t *testing.T) {
	r := NewRegistry()
	RegisterBuiltins(r)
	sqrt, ok := r.Scalar("sqrt")
	if !ok {
		t.Fatal("sqrt missing")
	}
	in := vector.New(vector.Float64, 2)
	in.AppendValue(vector.NewFloat64(9))
	in.AppendValue(vector.Null())
	out, err := sqrt.Eval([]*vector.Vector{in})
	if err != nil {
		t.Fatal(err)
	}
	if out.Get(0).Float64() != 3 {
		t.Fatal("sqrt(9)")
	}
	if !out.IsNull(1) {
		t.Fatal("sqrt(NULL) must be NULL")
	}

	length, _ := r.Scalar("length")
	lv, err := length.Eval([]*vector.Vector{vector.FromStrings([]string{"abc", ""})})
	if err != nil || lv.Int64s()[0] != 3 || lv.Int64s()[1] != 0 {
		t.Fatalf("length: %v %v", lv, err)
	}
	if _, err := length.Eval([]*vector.Vector{vector.FromInt64s([]int64{1})}); err == nil {
		t.Fatal("length of int should fail")
	}

	coalesce, _ := r.Scalar("coalesce")
	a := vector.New(vector.Int64, 2)
	a.AppendValue(vector.Null())
	a.AppendValue(vector.NewInt64(1))
	b := vector.FromInt64s([]int64{9, 9})
	cv, err := coalesce.Eval([]*vector.Vector{a, b})
	if err != nil || cv.Get(0).Int64() != 9 || cv.Get(1).Int64() != 1 {
		t.Fatalf("coalesce: %v %v", cv, err)
	}

	pow, _ := r.Scalar("pow")
	pv, err := pow.Eval([]*vector.Vector{
		vector.FromFloat64s([]float64{2}), vector.FromFloat64s([]float64{10})})
	if err != nil || pv.Float64s()[0] != 1024 {
		t.Fatalf("pow: %v %v", pv, err)
	}
}
