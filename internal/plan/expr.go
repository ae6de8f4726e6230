// Package plan turns parsed SQL into bound logical plans: column
// references are resolved to positions, types are inferred, equi-join
// keys are extracted, and aggregates are split from projections. The
// executor consumes these plans directly.
package plan

import (
	"fmt"

	"vexdb/internal/core"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// Expr is a bound, typed scalar expression evaluated over chunks.
type Expr interface {
	// Type returns the expression's result type.
	Type() vector.Type
}

// ColRef reads column Idx of the input chunk.
type ColRef struct {
	Idx  int
	Typ  vector.Type
	Name string // for diagnostics and result naming
}

// Const is a constant value.
type Const struct {
	Val vector.Value
	Typ vector.Type
}

// BinOp applies a binary operator.
type BinOp struct {
	Op    sql.BinaryOp
	Left  Expr
	Right Expr
	Typ   vector.Type
}

// Not is boolean negation (SQL three-valued).
type Not struct {
	Operand Expr
}

// Neg is arithmetic negation.
type Neg struct {
	Operand Expr
}

// IsNull tests for NULL.
type IsNull struct {
	Operand Expr
	Negate  bool
}

// Cast converts to a target type.
type Cast struct {
	Operand Expr
	To      vector.Type
}

// When is one CASE branch.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression (simple CASE is desugared during
// binding).
type Case struct {
	Whens []When
	Else  Expr // nil means NULL
	Typ   vector.Type
}

// Call invokes a registered scalar UDF.
type Call struct {
	Fn   *core.ScalarFunc
	Args []Expr
	Typ  vector.Type
}

// In tests membership in a literal list.
type In struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

func (e *ColRef) Type() vector.Type { return e.Typ }
func (e *Const) Type() vector.Type  { return e.Typ }
func (e *BinOp) Type() vector.Type  { return e.Typ }
func (e *Not) Type() vector.Type    { return vector.Bool }
func (e *Neg) Type() vector.Type    { return e.Operand.Type() }
func (e *IsNull) Type() vector.Type { return vector.Bool }
func (e *Cast) Type() vector.Type   { return e.To }
func (e *Case) Type() vector.Type   { return e.Typ }
func (e *Call) Type() vector.Type   { return e.Typ }
func (e *In) Type() vector.Type     { return vector.Bool }

// EachCall walks e depth-first and invokes fn for every UDF call it
// contains. fn returning false stops the walk; EachCall reports
// whether the walk ran to completion. The executor uses it both to
// detect UDF-bearing expressions and to decide whether a projection's
// calls are all Parallel (and therefore safe for the streaming,
// morsel-parallel ML operator).
func EachCall(e Expr, fn func(*Call) bool) bool {
	switch x := e.(type) {
	case *Call:
		if !fn(x) {
			return false
		}
		for _, a := range x.Args {
			if !EachCall(a, fn) {
				return false
			}
		}
	case *BinOp:
		return EachCall(x.Left, fn) && EachCall(x.Right, fn)
	case *Neg:
		return EachCall(x.Operand, fn)
	case *Not:
		return EachCall(x.Operand, fn)
	case *IsNull:
		return EachCall(x.Operand, fn)
	case *Cast:
		return EachCall(x.Operand, fn)
	case *Case:
		for _, w := range x.Whens {
			if !EachCall(w.Cond, fn) || !EachCall(w.Then, fn) {
				return false
			}
		}
		if x.Else != nil {
			return EachCall(x.Else, fn)
		}
	case *In:
		if !EachCall(x.Operand, fn) {
			return false
		}
		for _, l := range x.List {
			if !EachCall(l, fn) {
				return false
			}
		}
	}
	return true
}

// MayFail reports whether evaluating e can raise an error on some row:
// it calls a UDF, computes integer + - * (the result may leave its
// type's range), or converts a value where the conversion can fail —
// a CAST, or a CASE arm taking the CASE's type, from VARCHAR to another
// type (the text may not parse), or between types Value.Cast does not
// convert. Everything else the binder accepts evaluates on every row.
// A predicate that may fail stays where the statement put it: moved
// below a join it would see rows the join drops, or miss rows another
// moved conjunct rejects.
func MayFail(e Expr) bool {
	fails := false
	mapExpr(e, func(x Expr) Expr {
		switch y := x.(type) {
		case *Call:
			fails = true
		case *BinOp:
			fails = fails || (y.Op == sql.OpAdd || y.Op == sql.OpSub || y.Op == sql.OpMul) && y.Typ != vector.Float64
		case *Cast:
			fails = fails || castMayFail(y.Operand.Type(), y.To)
		case *Case:
			for _, w := range y.Whens {
				fails = fails || castMayFail(w.Then.Type(), y.Typ)
			}
			if y.Else != nil {
				fails = fails || castMayFail(y.Else.Type(), y.Typ)
			}
		}
		return x
	})
	return fails
}

// castMayFail reports whether Value.Cast can fail from one type to
// another: a narrowing numeric cast fails out of range.
func castMayFail(from, to vector.Type) bool {
	switch {
	case from == to || to == vector.String:
		return false
	case from == vector.Int32:
		return to == vector.Blob
	case from == vector.Int64:
		return to == vector.Blob || to == vector.Int32
	case from == vector.Bool:
		return to != vector.Int32 && to != vector.Int64
	case from == vector.String:
		return to != vector.Blob
	}
	return true
}

// EachColRef walks e depth-first and invokes fn on every column
// reference it contains.
func EachColRef(e Expr, fn func(*ColRef)) {
	switch x := e.(type) {
	case *ColRef:
		fn(x)
	case *BinOp:
		EachColRef(x.Left, fn)
		EachColRef(x.Right, fn)
	case *Neg:
		EachColRef(x.Operand, fn)
	case *Not:
		EachColRef(x.Operand, fn)
	case *IsNull:
		EachColRef(x.Operand, fn)
	case *Cast:
		EachColRef(x.Operand, fn)
	case *Case:
		for _, w := range x.Whens {
			EachColRef(w.Cond, fn)
			EachColRef(w.Then, fn)
		}
		if x.Else != nil {
			EachColRef(x.Else, fn)
		}
	case *Call:
		for _, a := range x.Args {
			EachColRef(a, fn)
		}
	case *In:
		EachColRef(x.Operand, fn)
		for _, l := range x.List {
			EachColRef(l, fn)
		}
	}
}

// MapColRefs returns a copy of e with every column reference replaced
// by f's result. Interior nodes are rebuilt (leaves other than ColRef
// are shared), so the input expression is never mutated — the
// cost-based planner uses this to retarget predicates at rebuilt join
// shapes while the original tree stays intact.
func MapColRefs(e Expr, f func(*ColRef) Expr) Expr {
	return mapExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok {
			return f(c)
		}
		return x
	})
}

// mapExpr returns a copy of e with every node replaced by f's result,
// bottom up: f sees each interior node rebuilt over its mapped
// children, and each leaf as it is. e itself is never mutated.
func mapExpr(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *BinOp:
		e = &BinOp{Op: x.Op, Left: mapExpr(x.Left, f), Right: mapExpr(x.Right, f), Typ: x.Typ}
	case *Neg:
		e = &Neg{Operand: mapExpr(x.Operand, f)}
	case *Not:
		e = &Not{Operand: mapExpr(x.Operand, f)}
	case *IsNull:
		e = &IsNull{Operand: mapExpr(x.Operand, f), Negate: x.Negate}
	case *Cast:
		e = &Cast{Operand: mapExpr(x.Operand, f), To: x.To}
	case *Case:
		out := &Case{Typ: x.Typ}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, When{Cond: mapExpr(w.Cond, f), Then: mapExpr(w.Then, f)})
		}
		if x.Else != nil {
			out.Else = mapExpr(x.Else, f)
		}
		e = out
	case *Call:
		out := &Call{Fn: x.Fn, Typ: x.Typ}
		for _, a := range x.Args {
			out.Args = append(out.Args, mapExpr(a, f))
		}
		e = out
	case *In:
		out := &In{Operand: mapExpr(x.Operand, f), Negate: x.Negate}
		for _, l := range x.List {
			out.List = append(out.List, mapExpr(l, f))
		}
		e = out
	}
	return f(e)
}

// AndAll joins conjuncts into a left-deep AND (nil for none).
func AndAll(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinOp{Op: sql.OpAnd, Left: out, Right: e, Typ: vector.Bool}
	}
	return out
}

// binOpType infers the result type of a binary operator application.
func binOpType(op sql.BinaryOp, l, r vector.Type) (vector.Type, error) {
	switch op {
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpMod:
		t, ok := vector.CommonNumeric(l, r)
		if !ok {
			return vector.Invalid, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, l, r)
		}
		return t, nil
	case sql.OpDiv:
		// Division always yields DOUBLE (simplifies analytical SQL; the
		// workloads in this repo never need integer division).
		if !l.IsNumeric() || !r.IsNumeric() {
			return vector.Invalid, fmt.Errorf("operator / requires numeric operands, got %s and %s", l, r)
		}
		return vector.Float64, nil
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		if !(l.IsNumeric() && r.IsNumeric()) && l != r {
			return vector.Invalid, fmt.Errorf("cannot compare %s with %s", l, r)
		}
		return vector.Bool, nil
	case sql.OpAnd, sql.OpOr:
		return vector.Bool, nil
	case sql.OpConcat:
		return vector.String, nil
	}
	return vector.Invalid, fmt.Errorf("unknown operator %s", op)
}

// ExprString renders a bound expression for plan display and result
// column naming.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *ColRef:
		if x.Name != "" {
			return x.Name
		}
		return fmt.Sprintf("#%d", x.Idx)
	case *Const:
		return x.Val.String()
	case *BinOp:
		return fmt.Sprintf("(%s %s %s)", ExprString(x.Left), x.Op, ExprString(x.Right))
	case *Not:
		return fmt.Sprintf("NOT %s", ExprString(x.Operand))
	case *Neg:
		return fmt.Sprintf("-%s", ExprString(x.Operand))
	case *IsNull:
		if x.Negate {
			return fmt.Sprintf("%s IS NOT NULL", ExprString(x.Operand))
		}
		return fmt.Sprintf("%s IS NULL", ExprString(x.Operand))
	case *Cast:
		return fmt.Sprintf("CAST(%s AS %s)", ExprString(x.Operand), x.To)
	case *Case:
		return "CASE"
	case *Call:
		return x.Fn.Name + "(...)"
	case *In:
		return fmt.Sprintf("%s IN (...)", ExprString(x.Operand))
	}
	return "?"
}
