package core

import (
	"fmt"
	"math"
	"strings"

	"vexdb/internal/vector"
)

// RegisterBuiltins installs the built-in scalar function library
// (math and string helpers) into the registry.
func RegisterBuiltins(r *Registry) {
	for _, f := range builtinScalars() {
		// Registration of the static builtin set cannot fail.
		if err := r.RegisterScalar(f); err != nil {
			panic(err)
		}
	}
}

// float1 builds a Parallel scalar UDF applying fn element-wise to one
// numeric column, returning DOUBLE.
func float1(name string, fn func(float64) float64) *ScalarFunc {
	return &ScalarFunc{
		Name:       name,
		Arity:      1,
		Parallel:   true,
		ReturnType: FixedReturn(vector.Float64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			in, err := args[0].AsFloat64s()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			out := make([]float64, len(in))
			for i, x := range in {
				out[i] = fn(x)
			}
			res := vector.FromFloat64s(out)
			copyNulls(res, args[0])
			return res, nil
		},
	}
}

// str1 builds a Parallel scalar UDF applying fn element-wise to one
// string column, returning VARCHAR.
func str1(name string, fn func(string) string) *ScalarFunc {
	return &ScalarFunc{
		Name:       name,
		Arity:      1,
		Parallel:   true,
		ReturnType: FixedReturn(vector.String),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			if args[0].Type() != vector.String {
				return nil, fmt.Errorf("%s: expected VARCHAR argument, got %s", name, args[0].Type())
			}
			in := args[0].Strings()
			out := make([]string, len(in))
			for i, s := range in {
				out[i] = fn(s)
			}
			res := vector.FromStrings(out)
			copyNulls(res, args[0])
			return res, nil
		},
	}
}

func copyNulls(dst, src *vector.Vector) {
	if nulls := src.Nulls(); nulls != nil {
		for i, isNull := range nulls {
			if isNull {
				dst.SetNull(i)
			}
		}
	}
}

func builtinScalars() []*ScalarFunc {
	return []*ScalarFunc{
		float1("sqrt", math.Sqrt),
		float1("ln", math.Log),
		float1("exp", math.Exp),
		float1("floor", math.Floor),
		float1("ceil", math.Ceil),
		float1("sin", math.Sin),
		float1("cos", math.Cos),
		float1("abs", math.Abs),
		{
			Name:       "round",
			Arity:      1,
			Parallel:   true,
			ReturnType: FixedReturn(vector.Float64),
			Eval: func(args []*vector.Vector) (*vector.Vector, error) {
				in, err := args[0].AsFloat64s()
				if err != nil {
					return nil, fmt.Errorf("round: %w", err)
				}
				out := make([]float64, len(in))
				for i, x := range in {
					out[i] = math.Round(x)
				}
				res := vector.FromFloat64s(out)
				copyNulls(res, args[0])
				return res, nil
			},
		},
		{
			Name:       "pow",
			Arity:      2,
			Parallel:   true,
			ReturnType: FixedReturn(vector.Float64),
			Eval: func(args []*vector.Vector) (*vector.Vector, error) {
				a, err := args[0].AsFloat64s()
				if err != nil {
					return nil, fmt.Errorf("pow: %w", err)
				}
				b, err := args[1].AsFloat64s()
				if err != nil {
					return nil, fmt.Errorf("pow: %w", err)
				}
				out := make([]float64, len(a))
				for i := range a {
					out[i] = math.Pow(a[i], b[i])
				}
				res := vector.FromFloat64s(out)
				copyNulls(res, args[0])
				copyNulls(res, args[1])
				return res, nil
			},
		},
		str1("lower", strings.ToLower),
		str1("upper", strings.ToUpper),
		{
			Name:       "length",
			Arity:      1,
			Parallel:   true,
			ReturnType: FixedReturn(vector.Int64),
			Eval: func(args []*vector.Vector) (*vector.Vector, error) {
				n := args[0].Len()
				out := make([]int64, n)
				switch args[0].Type() {
				case vector.String:
					for i, s := range args[0].Strings() {
						out[i] = int64(len(s))
					}
				case vector.Blob:
					for i, b := range args[0].Blobs() {
						out[i] = int64(len(b))
					}
				default:
					return nil, fmt.Errorf("length: expected VARCHAR or BLOB, got %s", args[0].Type())
				}
				res := vector.FromInt64s(out)
				copyNulls(res, args[0])
				return res, nil
			},
		},
		{
			Name:       "coalesce",
			Arity:      -1,
			ReturnType: coalesceType,
			Parallel:   true,
			Eval: func(args []*vector.Vector) (*vector.Vector, error) {
				types := make([]vector.Type, len(args))
				for i, a := range args {
					types[i] = a.Type()
				}
				t, err := coalesceType(types)
				if err != nil {
					return nil, fmt.Errorf("coalesce: %w", err)
				}
				n := args[0].Len()
				out := vector.New(t, n)
				for i := 0; i < n; i++ {
					v := vector.Null()
					for _, a := range args {
						if !a.IsNull(i) {
							v = a.Get(i)
							break
						}
					}
					if !v.IsNull() && v.Type() != t {
						if v, err = v.Cast(t); err != nil {
							return nil, fmt.Errorf("coalesce: %w", err)
						}
					}
					out.AppendValue(v)
				}
				return out, nil
			},
		},
	}
}

// coalesceType is coalesce's result type: its arguments' common numeric
// type, or their one type when that is not numeric. An untyped argument
// (Invalid) takes the type of the others, DOUBLE when none is typed; a
// mix no cast reconciles (VARCHAR with INTEGER) is an error.
func coalesceType(args []vector.Type) (vector.Type, error) {
	if len(args) == 0 {
		return vector.Invalid, fmt.Errorf("requires arguments")
	}
	t := vector.Invalid
	for _, a := range args {
		switch {
		case a == vector.Invalid || a == t:
		case t == vector.Invalid:
			t = a
		default:
			c, ok := vector.CommonNumeric(t, a)
			if !ok {
				return vector.Invalid, fmt.Errorf("arguments of types %s and %s have no common type", t, a)
			}
			t = c
		}
	}
	if t == vector.Invalid {
		return vector.Float64, nil
	}
	return t, nil
}
