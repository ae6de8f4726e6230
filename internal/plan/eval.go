package plan

import (
	"fmt"
	"math"
	"math/bits"

	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// Evaluate computes a bound expression over a chunk, returning a
// vector of e.Type() with one row per input row. Types are settled at
// bind and a UDF's result is cast to its call's type where it is called
// (core.ScalarFunc.Call), so no operator re-checks what it gets.
func Evaluate(e Expr, ch *vector.Chunk) (*vector.Vector, error) {
	switch x := e.(type) {
	case *ColRef:
		return ch.Col(x.Idx), nil
	case *Const:
		return vector.Constant(x.Val, ch.NumRows(), x.Typ), nil
	case *BinOp:
		return evalBinOp(x, ch)
	case *Neg:
		return evalNeg(x, ch)
	case *Not:
		return evalNot(x, ch)
	case *IsNull:
		return evalIsNull(x, ch)
	case *Cast:
		in, err := Evaluate(x.Operand, ch)
		if err != nil {
			return nil, err
		}
		return in.Cast(x.To)
	case *Case:
		return evalCase(x, ch)
	case *In:
		return evalIn(x, ch)
	case *Call:
		args := make([]*vector.Vector, len(x.Args))
		for i, a := range x.Args {
			v, err := Evaluate(a, ch)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return x.Fn.Call(x.Typ, args, ch.NumRows())
	}
	return nil, fmt.Errorf("exec: cannot evaluate %T", e)
}

// EvalConst evaluates an expression with no column references (a
// constant) to a single value. A bound literal is its value; anything
// else is evaluated over one row.
func EvalConst(e Expr) (vector.Value, error) {
	if c, ok := e.(*Const); ok {
		return c.Val, nil
	}
	one := vector.FromInt32s([]int32{0})
	ch := vector.NewChunk(one)
	v, err := Evaluate(e, ch)
	if err != nil {
		return vector.Null(), err
	}
	return v.Get(0), nil
}

func combineNulls(out *vector.Vector, ins ...*vector.Vector) {
	for _, in := range ins {
		if nulls := in.Nulls(); nulls != nil {
			for i, isNull := range nulls {
				if isNull {
					out.SetNull(i)
				}
			}
		}
	}
}

func evalBinOp(x *BinOp, ch *vector.Chunk) (*vector.Vector, error) {
	switch x.Op {
	case sql.OpAnd, sql.OpOr:
		return evalLogical(x, ch)
	}
	l, err := Evaluate(x.Left, ch)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(x.Right, ch)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		return evalArith(x.Op, x.Typ, l, r)
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return evalCompare(x.Op, l, r)
	case sql.OpConcat:
		return evalConcat(l, r)
	}
	return nil, fmt.Errorf("exec: operator %s not implemented", x.Op)
}

func evalConcat(l, r *vector.Vector) (*vector.Vector, error) {
	n := l.Len()
	out := make([]string, n)
	ls, err := asStrings(l)
	if err != nil {
		return nil, err
	}
	rs, err := asStrings(r)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = ls[i] + rs[i]
	}
	res := vector.FromStrings(out)
	combineNulls(res, l, r)
	return res, nil
}

func asStrings(v *vector.Vector) ([]string, error) {
	if v.Type() == vector.String {
		return v.Strings(), nil
	}
	sv, err := v.Cast(vector.String)
	if err != nil {
		return nil, err
	}
	return sv.Strings(), nil
}

func evalArith(op sql.BinaryOp, outType vector.Type, l, r *vector.Vector) (*vector.Vector, error) {
	n := l.Len()
	if outType == vector.Float64 {
		a, err := l.AsFloat64s()
		if err != nil {
			return nil, err
		}
		b, err := r.AsFloat64s()
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		switch op {
		case sql.OpAdd:
			for i := range out {
				out[i] = a[i] + b[i]
			}
		case sql.OpSub:
			for i := range out {
				out[i] = a[i] - b[i]
			}
		case sql.OpMul:
			for i := range out {
				out[i] = a[i] * b[i]
			}
		case sql.OpDiv:
			for i := range out {
				out[i] = a[i] / b[i] // IEEE semantics; NULL handled below
			}
		case sql.OpMod:
			for i := range out {
				if b[i] == 0 {
					out[i] = 0
				} else {
					out[i] = float64(int64(a[i]) % int64(b[i]))
				}
			}
		}
		res := vector.FromFloat64s(out)
		combineNulls(res, l, r)
		// Division by zero yields NULL, not Inf.
		if op == sql.OpDiv {
			for i := range b {
				if b[i] == 0 {
					res.SetNull(i)
				}
			}
		}
		return res, nil
	}
	// Integer path (Int32 or Int64 output). A result the output type
	// cannot hold fails the expression, as a narrowing cast does.
	a, err := asInt64s(l)
	if err != nil {
		return nil, err
	}
	b, err := asInt64s(r)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	var divZero, over []int
	switch op {
	case sql.OpAdd:
		for i := range out {
			if out[i] = a[i] + b[i]; (a[i]^out[i])&(b[i]^out[i]) < 0 {
				over = append(over, i)
			}
		}
	case sql.OpSub:
		for i := range out {
			if out[i] = a[i] - b[i]; (a[i]^b[i])&(a[i]^out[i]) < 0 {
				over = append(over, i)
			}
		}
	case sql.OpMul:
		for i := range out {
			hi, lo := bits.Mul64(uint64(a[i]), uint64(b[i]))
			// The signed product's high word is the unsigned one's less
			// each negative factor's partner; it fits when that word is
			// the low word's sign.
			if a[i] < 0 {
				hi -= uint64(b[i])
			}
			if b[i] < 0 {
				hi -= uint64(a[i])
			}
			if out[i] = int64(lo); int64(hi) != out[i]>>63 {
				over = append(over, i)
			}
		}
	case sql.OpMod:
		for i := range out {
			if b[i] == 0 {
				divZero = append(divZero, i)
				continue
			}
			out[i] = a[i] % b[i]
		}
	default:
		return nil, fmt.Errorf("exec: integer %s not supported", op)
	}
	var res *vector.Vector
	if outType == vector.Int32 {
		o32 := make([]int32, n)
		for i, v := range out {
			if o32[i] = int32(v); int64(o32[i]) != v {
				over = append(over, i)
			}
		}
		res = vector.FromInt32s(o32)
	} else {
		res = vector.FromInt64s(out)
	}
	combineNulls(res, l, r)
	for _, i := range over {
		if !res.IsNull(i) {
			return nil, fmt.Errorf("%d %s %d: out of range for %s", a[i], op, b[i], outType)
		}
	}
	for _, i := range divZero {
		res.SetNull(i)
	}
	return res, nil
}

func asInt64s(v *vector.Vector) ([]int64, error) {
	switch v.Type() {
	case vector.Int64:
		return v.Int64s(), nil
	case vector.Int32:
		out := make([]int64, v.Len())
		for i, x := range v.Int32s() {
			out[i] = int64(x)
		}
		return out, nil
	case vector.Float64:
		out := make([]int64, v.Len())
		for i, x := range v.Float64s() {
			out[i] = int64(x)
		}
		return out, nil
	}
	return nil, fmt.Errorf("exec: %s is not an integer type", v.Type())
}

func evalCompare(op sql.BinaryOp, l, r *vector.Vector) (*vector.Vector, error) {
	n := l.Len()
	out := make([]bool, n)
	lt, rt := l.Type(), r.Type()
	switch {
	case lt.IsNumeric() && rt.IsNumeric():
		if lt == vector.Float64 || rt == vector.Float64 {
			a, _ := l.AsFloat64s()
			b, _ := r.AsFloat64s()
			for i := range out {
				out[i] = floatCmpToBool(op, a[i], b[i])
			}
		} else {
			a, _ := asInt64s(l)
			b, _ := asInt64s(r)
			for i := range out {
				out[i] = CmpToBool(op, compareInt(a[i], b[i]))
			}
		}
	case lt == vector.String && rt == vector.String:
		a, b := l.Strings(), r.Strings()
		for i := range out {
			out[i] = CmpToBool(op, CompareString(a[i], b[i]))
		}
	case lt == vector.Bool && rt == vector.Bool:
		a, b := l.Bools(), r.Bools()
		for i := range out {
			switch op {
			case sql.OpEq:
				out[i] = a[i] == b[i]
			case sql.OpNe:
				out[i] = a[i] != b[i]
			default:
				out[i] = CmpToBool(op, CompareBool(a[i], b[i]))
			}
		}
	case lt == vector.Blob && rt == vector.Blob:
		a, b := l.Blobs(), r.Blobs()
		for i := range out {
			c := CompareString(string(a[i]), string(b[i]))
			out[i] = CmpToBool(op, c)
		}
	default:
		return nil, fmt.Errorf("exec: cannot compare %s with %s", lt, rt)
	}
	res := vector.FromBools(out)
	combineNulls(res, l, r)
	return res, nil
}

// floatCmpToBool applies IEEE comparison semantics: NaN is unordered,
// so every predicate over it is FALSE except <>, which is TRUE. This
// is what zone-map pruning assumes (NaN is excluded from segment
// bounds because it can never satisfy =, <, <=, >, >=; a <> kernel
// never prunes) — row-level evaluation must agree or pruned
// and unpruned scans would return different rows. ORDER BY
// deliberately differs: sorting needs a total order, so there NaN is
// greatest (vector.Value.Compare), the same split Go and Rust make
// between comparison operators and sort ordering.
func floatCmpToBool(op sql.BinaryOp, a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return op == sql.OpNe
	}
	return CmpToBool(op, compareFloat(a, b))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CompareString orders two strings bytewise: -1, 0 or 1.
func CompareString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CompareBool orders FALSE before TRUE.
func CompareBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

// CmpToBool applies comparison op to the result c of a three-way
// compare.
func CmpToBool(op sql.BinaryOp, c int) bool {
	switch op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	}
	return false
}

// evalLogical implements AND/OR with SQL three-valued logic.
func evalLogical(x *BinOp, ch *vector.Chunk) (*vector.Vector, error) {
	l, err := Evaluate(x.Left, ch)
	if err != nil {
		return nil, err
	}
	r, err := Evaluate(x.Right, ch)
	if err != nil {
		return nil, err
	}
	n := l.Len()
	a, b := l.Bools(), r.Bools()
	out := make([]bool, n)
	res := vector.FromBools(out)
	isAnd := x.Op == sql.OpAnd
	for i := 0; i < n; i++ {
		ln, rn := l.IsNull(i), r.IsNull(i)
		switch {
		case !ln && !rn:
			if isAnd {
				out[i] = a[i] && b[i]
			} else {
				out[i] = a[i] || b[i]
			}
		case isAnd:
			// NULL AND FALSE = FALSE, otherwise NULL.
			if (!ln && !a[i]) || (!rn && !b[i]) {
				out[i] = false
			} else {
				res.SetNull(i)
			}
		default:
			// NULL OR TRUE = TRUE, otherwise NULL.
			if (!ln && a[i]) || (!rn && b[i]) {
				out[i] = true
			} else {
				res.SetNull(i)
			}
		}
	}
	return res, nil
}

func evalNeg(x *Neg, ch *vector.Chunk) (*vector.Vector, error) {
	in, err := Evaluate(x.Operand, ch)
	if err != nil {
		return nil, err
	}
	switch in.Type() {
	case vector.Float64:
		out := make([]float64, in.Len())
		for i, v := range in.Float64s() {
			out[i] = -v
		}
		res := vector.FromFloat64s(out)
		combineNulls(res, in)
		return res, nil
	case vector.Int64:
		out := make([]int64, in.Len())
		for i, v := range in.Int64s() {
			out[i] = -v
		}
		res := vector.FromInt64s(out)
		combineNulls(res, in)
		return res, nil
	case vector.Int32:
		out := make([]int32, in.Len())
		for i, v := range in.Int32s() {
			out[i] = -v
		}
		res := vector.FromInt32s(out)
		combineNulls(res, in)
		return res, nil
	}
	return nil, fmt.Errorf("exec: cannot negate %s", in.Type())
}

func evalNot(x *Not, ch *vector.Chunk) (*vector.Vector, error) {
	in, err := Evaluate(x.Operand, ch)
	if err != nil {
		return nil, err
	}
	out := make([]bool, in.Len())
	for i, v := range in.Bools() {
		out[i] = !v
	}
	res := vector.FromBools(out)
	combineNulls(res, in)
	return res, nil
}

func evalIsNull(x *IsNull, ch *vector.Chunk) (*vector.Vector, error) {
	in, err := Evaluate(x.Operand, ch)
	if err != nil {
		return nil, err
	}
	out := make([]bool, in.Len())
	for i := range out {
		isNull := in.IsNull(i)
		if x.Negate {
			out[i] = !isNull
		} else {
			out[i] = isNull
		}
	}
	return vector.FromBools(out), nil
}

func evalCase(x *Case, ch *vector.Chunk) (*vector.Vector, error) {
	n := ch.NumRows()
	conds := make([]*vector.Vector, len(x.Whens))
	thens := make([]*vector.Vector, len(x.Whens))
	for i, w := range x.Whens {
		c, err := Evaluate(w.Cond, ch)
		if err != nil {
			return nil, err
		}
		t, err := Evaluate(w.Then, ch)
		if err != nil {
			return nil, err
		}
		conds[i], thens[i] = c, t
	}
	var els *vector.Vector
	if x.Else != nil {
		v, err := Evaluate(x.Else, ch)
		if err != nil {
			return nil, err
		}
		els = v
	}
	out := vector.New(x.Typ, n)
	for i := 0; i < n; i++ {
		arm := els // nil without an ELSE: NULL
		for w := range conds {
			if !conds[w].IsNull(i) && conds[w].Bools()[i] {
				arm = thens[w]
				break
			}
		}
		v := vector.Null()
		if arm != nil {
			v = arm.Get(i)
		}
		if !v.IsNull() && v.Type() != x.Typ {
			cv, err := v.Cast(x.Typ)
			if err != nil {
				return nil, err
			}
			v = cv
		}
		out.AppendValue(v)
	}
	return out, nil
}

func evalIn(x *In, ch *vector.Chunk) (*vector.Vector, error) {
	op, err := Evaluate(x.Operand, ch)
	if err != nil {
		return nil, err
	}
	list := make([]*vector.Vector, len(x.List))
	for i, le := range x.List {
		v, err := Evaluate(le, ch)
		if err != nil {
			return nil, err
		}
		list[i] = v
	}
	n := op.Len()
	out := make([]bool, n)
	res := vector.FromBools(out)
	for i := 0; i < n; i++ {
		if op.IsNull(i) {
			res.SetNull(i)
			continue
		}
		v := op.Get(i)
		match := false
		anyNull := false
		for _, lv := range list {
			if lv.IsNull(i) {
				anyNull = true
				continue
			}
			if v.Equal(lv.Get(i)) {
				match = true
				break
			}
		}
		switch {
		case match:
			out[i] = !x.Negate
		case anyNull:
			res.SetNull(i) // unknown membership
		default:
			out[i] = x.Negate
		}
	}
	return res, nil
}
