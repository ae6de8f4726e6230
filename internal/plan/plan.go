package plan

import (
	"sync/atomic"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// Node is a bound logical plan node. Schema returns the node's output
// columns in order.
type Node interface {
	Schema() catalog.Schema
}

// NodeStats receives per-node runtime counters when a plan is executed
// with taps installed (EXPLAIN ANALYZE). Updated atomically by the
// executor; read after the stream drains.
type NodeStats struct {
	Rows atomic.Int64 // rows the node emitted

	// Hybrid spill-mode counters for blocking operators: how many hash
	// partitions overflowed to disk vs stayed resident in memory after
	// the operator went out-of-core. Both zero when the operator never
	// overflowed.
	SpillSpilled  atomic.Int64
	SpillResident atomic.Int64

	// Hash aggregation (Aggregate, Distinct): groups created over all of
	// the node's tables — thread-local, partition, reloaded — against the
	// groups those tables emitted; the nearer the two, the less was
	// pre-aggregated only to be merged again. PartitionedAt is how many
	// input rows the first consumer to stop pre-aggregating had consumed
	// when it did, zero when none did.
	GroupsInserted atomic.Int64
	GroupsEmitted  atomic.Int64
	PartitionedAt  atomic.Int64
}

// ExecHints carries cost-based planner decisions down to the executor.
// Every hint is advisory and result-preserving: the executor may honor
// or ignore any of them without changing output bytes. The zero value
// means "no hints" (syntactic behavior).
type ExecHints struct {
	// EstRows is the planner's output-cardinality estimate; 0 means
	// unknown. Used for EXPLAIN and for sizing decisions.
	EstRows int64
	// Serial runs this operator's subtree at one worker when the
	// estimated input is too small to amortize parallel setup.
	Serial bool
	// FanoutLog2 overrides the first-level spill partition fan-out
	// (log2 of the partition count); 0 keeps the default.
	FanoutLog2 int
	// Tap, when non-nil, asks the executor to count the node's actual
	// output rows into it (EXPLAIN ANALYZE).
	Tap *NodeStats
}

// ScanPredicate is one scan-eligible WHERE conjunct of the form
// `column <op> constant`, pushed down to the scan for zone-map
// pruning. Col is the table-schema position (not the projected
// position), so it stays valid across column pruning. The predicate
// is advisory: the full WHERE filter still runs over every surviving
// chunk, so pruning may only skip segments whose zone maps prove no
// row can match — it never substitutes for row-level evaluation.
// SplitFilter uses the same shape for the selection kernels a filter
// runs, where Col is the filter input's position.
type ScanPredicate struct {
	Col int
	Op  sql.BinaryOp // OpEq, OpLt, OpLe, OpGt or OpGe; a kernel may also be OpNe
	Val vector.Value // non-NULL constant
}

// Scan reads a base table. Projection (set by Prune) restricts the
// produced columns to the listed table-schema positions; nil produces
// every column. Preds (set by the binder) are pushed-down predicates
// the scan may use to skip whole segments. RowPos (set by the
// cost-based join reorderer, after pruning) appends a synthetic
// "__rowpos" Int64 column holding each row's global position in the
// table — positions count every segment, including ones zone-map
// pruning skips, so they identify rows stably across plans.
type Scan struct {
	Table      *catalog.Table
	Projection []int
	Preds      []ScanPredicate
	RowPos     bool
	Hints      ExecHints
}

// Schema implements Node.
func (s *Scan) Schema() catalog.Schema {
	out := s.Table.Schema
	if s.Projection != nil {
		out = make(catalog.Schema, 0, len(s.Projection)+1)
		for _, p := range s.Projection {
			out = append(out, s.Table.Schema[p])
		}
	}
	if s.RowPos {
		out = append(out[:len(out):len(out)], catalog.Column{Name: "__rowpos", Type: vector.Int64})
	}
	return out
}

// MaterialScan reads an already materialized table (UNION inputs,
// VALUES, cached relations).
type Material struct {
	Data  *vector.Table
	Schem catalog.Schema
}

// Schema implements Node.
func (m *Material) Schema() catalog.Schema { return m.Schem }

// FuncArg is one bound argument of a table-function scan: either a
// subplan producing a relation or a constant scalar expression
// (evaluated once at execution time).
type FuncArg struct {
	Sub       Node // non-nil for relation arguments
	ConstExpr Expr // used when Sub is nil
}

// TableFuncScan invokes a table UDF with bound arguments and scans its
// result (Listing 1 of the paper: SELECT * FROM train(...)).
type TableFuncScan struct {
	Fn   *core.TableFunc
	Args []FuncArg
}

// Schema implements Node.
func (t *TableFuncScan) Schema() catalog.Schema {
	s := make(catalog.Schema, len(t.Fn.Columns))
	for i, c := range t.Fn.Columns {
		s[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	return s
}

// Filter keeps rows where Pred evaluates to TRUE.
type Filter struct {
	Pred  Expr
	Child Node
	Hints ExecHints
}

// Schema implements Node.
func (f *Filter) Schema() catalog.Schema { return f.Child.Schema() }

// Project computes output columns from expressions over the child.
type Project struct {
	Exprs []Expr
	Names []string
	Child Node
}

// Schema implements Node.
func (p *Project) Schema() catalog.Schema {
	s := make(catalog.Schema, len(p.Exprs))
	for i, e := range p.Exprs {
		s[i] = catalog.Column{Name: p.Names[i], Type: e.Type()}
	}
	return s
}

// HashJoin joins Left and Right on equi-key pairs; Extra holds any
// residual non-equi conjuncts of the ON clause. Output columns are the
// left schema followed by the right schema.
type HashJoin struct {
	Kind      sql.JoinKind
	Left      Node
	Right     Node
	LeftKeys  []Expr // evaluated over Left's schema
	RightKeys []Expr // evaluated over Right's schema
	Extra     Expr   // evaluated over the combined schema; may be nil
	Hints     ExecHints
}

// Schema implements Node.
func (j *HashJoin) Schema() catalog.Schema {
	ls, rs := j.Left.Schema(), j.Right.Schema()
	out := make(catalog.Schema, 0, len(ls)+len(rs))
	out = append(out, ls...)
	out = append(out, rs...)
	return out
}

// AggKind identifies an aggregate function.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota // count(*) when Arg == nil
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate computation.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for count(*)
	Distinct bool
	Name     string
	Typ      vector.Type
}

// Aggregate groups the child by GroupBy expressions and computes Aggs.
// Output columns are the group expressions followed by the aggregates.
type Aggregate struct {
	GroupBy    []Expr
	GroupNames []string
	Aggs       []AggSpec
	Child      Node
	Hints      ExecHints
}

// Schema implements Node.
func (a *Aggregate) Schema() catalog.Schema {
	out := make(catalog.Schema, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		out = append(out, catalog.Column{Name: a.GroupNames[i], Type: g.Type()})
	}
	for _, s := range a.Aggs {
		out = append(out, catalog.Column{Name: s.Name, Type: s.Typ})
	}
	return out
}

// SortKey is one ORDER BY key over the child's output columns.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders the child's rows. Limit, when > 0, is an advisory hint
// set by the binder when an enclosing LIMIT bounds how many ordered
// rows any consumer can observe (offset+count): the executor's
// parallel merge may stop producing after that many rows. The Limit
// node above still enforces the bound, so the hint can only skip work,
// never change results. Limit <= 0 (the zero value) means unbounded.
type Sort struct {
	Keys  []SortKey
	Child Node
	Limit int64
	Hints ExecHints
}

// Schema implements Node.
func (s *Sort) Schema() catalog.Schema { return s.Child.Schema() }

// Limit returns at most Count rows after skipping Offset rows.
// Count < 0 means no limit.
type Limit struct {
	Count  int64
	Offset int64
	Child  Node
}

// Schema implements Node.
func (l *Limit) Schema() catalog.Schema { return l.Child.Schema() }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
	Hints ExecHints
}

// Schema implements Node.
func (d *Distinct) Schema() catalog.Schema { return d.Child.Schema() }

// GroupExprs returns the child's output columns as group-by
// expressions: DISTINCT is equivalent to grouping by every column
// with no aggregates, which is how the executor runs it at every width
// (per-worker distinct sets unioned at the first-appearance merge).
func (d *Distinct) GroupExprs() ([]Expr, []string) {
	schema := d.Child.Schema()
	exprs := make([]Expr, len(schema))
	names := make([]string, len(schema))
	for i, c := range schema {
		exprs[i] = &ColRef{Idx: i, Typ: c.Type, Name: c.Name}
		names[i] = c.Name
	}
	return exprs, names
}

// Union concatenates two inputs with identical arity (types must be
// pairwise compatible). All=false removes duplicates.
type Union struct {
	Left  Node
	Right Node
	All   bool
}

// Schema implements Node.
func (u *Union) Schema() catalog.Schema { return u.Left.Schema() }
