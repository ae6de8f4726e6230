package plan

import (
	"vexdb/internal/catalog"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// TableScope is a public binding scope over a single table's columns,
// used by the engine for DELETE/UPDATE predicates that are evaluated
// outside a full SELECT plan.
type TableScope struct {
	sc *scope
}

// NewTableScope builds a scope exposing the table's columns both
// unqualified and qualified by the table name.
func NewTableScope(tab *catalog.Table) *TableScope {
	sc := &scope{}
	for _, c := range tab.Schema {
		sc.add(tab.Name, c.Name, c.Type)
	}
	return &TableScope{sc: sc}
}

// BindExprIn binds an AST expression against a table scope, such as an
// UPDATE's SET value.
func (b *Binder) BindExprIn(e sql.Expr, ts *TableScope) (Expr, error) {
	return b.bindTyped(e, ts.sc, vector.Float64)
}

// BindWhereIn binds a DELETE or UPDATE predicate against a table scope,
// simplified as a SELECT's WHERE is: nil when every row passes, and
// the constant FALSE (IsFalse) when none does.
func (b *Binder) BindWhereIn(e sql.Expr, ts *TableScope) (Expr, error) {
	return b.bindPredicate(e, ts.sc)
}
