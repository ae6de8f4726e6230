package sql

import (
	"strings"

	"vexdb/internal/vector"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// TableRef is any source in a FROM clause.
type TableRef interface{ tableRef() }

// ---------------------------------------------------------------- statements

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols) or
// CREATE TABLE name AS SELECT ...
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef // nil when AsSelect is set
	AsSelect    *Select
}

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type vector.Type
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// Insert is INSERT INTO name [(cols)] VALUES (...)... or
// INSERT INTO name [(cols)] SELECT ...
type Insert struct {
	Table   string
	Columns []string // nil = all columns in table order
	Rows    [][]Expr // literal rows; nil when FromSelect is set
	Query   *Select
}

// Delete is DELETE FROM name [WHERE pred].
type Delete struct {
	Table string
	Where Expr
}

// Update is UPDATE name SET col = expr, ... [WHERE pred].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause of UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Select is a SELECT statement (optionally with set operations chained
// via Union).
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil for FROM-less selects (SELECT 1+1)
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr // nil = no offset
	Union    *Select
	UnionAll bool
}

// Explain is EXPLAIN [ANALYZE] <select>: it renders the query's
// execution plan (with cost estimates) instead of its rows; ANALYZE
// additionally runs the query and reports actual cardinalities next
// to the estimates.
type Explain struct {
	Analyze bool
	Query   *Select
}

// Set is SET name = value: it changes one setting of the session the
// statement runs in. Name is lower-cased; Value is the value's text.
type Set struct {
	Name  string
	Value string
}

// Show is SHOW name: one row holding the setting's current value.
// SHOW is recognised only as a statement's first word, so it is no
// reserved word.
type Show struct {
	Name string
}

// SelectItem is one projection in the select list. Star selects all
// visible columns (optionally qualified: t.*).
type SelectItem struct {
	Star      bool
	StarTable string
	Expr      Expr
	Alias     string
}

// JoinKind distinguishes join types.
type JoinKind uint8

// Supported join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	CrossJoin
)

// Join is one JOIN clause.
type Join struct {
	Kind JoinKind
	Src  TableRef
	On   Expr // nil for CROSS JOIN
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Delete) stmt()      {}
func (*Update) stmt()      {}
func (*Select) stmt()      {}
func (*Explain) stmt()     {}
func (*Set) stmt()         {}
func (*Show) stmt()        {}

// ---------------------------------------------------------------- table refs

// BaseTable references a named table, optionally aliased.
type BaseTable struct {
	Name  string
	Alias string
}

// SubqueryTable is a parenthesized SELECT in FROM.
type SubqueryTable struct {
	Query *Select
	Alias string
}

// TableFunc is a table-valued function call in FROM, e.g.
// train_rf((SELECT ...), 16). Arguments are either subqueries or
// scalar expressions.
type TableFunc struct {
	Name  string
	Args  []TableFuncArg
	Alias string
}

// TableFuncArg is one argument to a table function.
type TableFuncArg struct {
	Query *Select // set for subquery arguments
	Expr  Expr    // set for scalar arguments
}

func (*BaseTable) tableRef()     {}
func (*SubqueryTable) tableRef() {}
func (*TableFunc) tableRef()     {}

// --------------------------------------------------------------- expressions

// ColumnRef references a column, optionally qualified by table alias.
type ColumnRef struct {
	Table string // "" when unqualified
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Value vector.Value
}

// BinaryOp identifies a binary operator.
type BinaryOp uint8

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpConcat
)

func (op BinaryOp) String() string {
	return [...]string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "||"}[op]
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op    BinaryOp
	Left  Expr
	Right Expr
}

// UnaryExpr applies unary minus or NOT.
type UnaryExpr struct {
	Neg     bool // true: -x, false: NOT x
	Operand Expr
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

// FuncCall is a scalar or aggregate function call. Star marks
// COUNT(*). Distinct marks COUNT(DISTINCT x) style calls.
type FuncCall struct {
	Name     string // lower-cased
	Args     []Expr
	Star     bool
	Distinct bool
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN pair.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	Operand Expr
	To      vector.Type
}

// InExpr is expr [NOT] IN (e1, e2, ...).
type InExpr struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

func (*ColumnRef) expr()  {}
func (*Literal) expr()    {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*IsNullExpr) expr() {}
func (*FuncCall) expr()   {}
func (*CaseExpr) expr()   {}
func (*CastExpr) expr()   {}
func (*InExpr) expr()     {}

// AggregateNames is the set of built-in aggregate function names.
var AggregateNames = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// IsAggregate reports whether the expression tree contains an
// aggregate function call at its top level scope (not inside a nested
// subquery, which the AST does not allow in expressions).
func IsAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if AggregateNames[strings.ToLower(x.Name)] {
			return true
		}
		for _, a := range x.Args {
			if IsAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return IsAggregate(x.Left) || IsAggregate(x.Right)
	case *UnaryExpr:
		return IsAggregate(x.Operand)
	case *IsNullExpr:
		return IsAggregate(x.Operand)
	case *CastExpr:
		return IsAggregate(x.Operand)
	case *CaseExpr:
		if x.Operand != nil && IsAggregate(x.Operand) {
			return true
		}
		for _, w := range x.Whens {
			if IsAggregate(w.Cond) || IsAggregate(w.Then) {
				return true
			}
		}
		if x.Else != nil {
			return IsAggregate(x.Else)
		}
	case *InExpr:
		if IsAggregate(x.Operand) {
			return true
		}
		for _, i := range x.List {
			if IsAggregate(i) {
				return true
			}
		}
	}
	return false
}
