// Package core implements the paper's primary contribution: the
// vectorized user-defined function framework that deeply integrates
// machine-learning pipelines into the column store. UDFs receive whole
// column vectors (not scalar rows), mirroring MonetDB/Python UDFs:
// scalar UDFs map input columns to an output column and may be
// executed partitioned across goroutines; table UDFs consume
// materialized relations plus scalar parameters and return a relation,
// which is how models are trained (Listing 1 of the paper) and stored
// as BLOBs.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"vexdb/internal/vector"
)

// ScalarFunc is a vectorized scalar UDF. Eval receives full column
// vectors of equal length and returns one vector of the same length.
// The engine calls it only through Call, the boundary where its result
// enters the engine: a result of another length fails the query, and a
// result of another type than the call's bound type (ReturnType of the
// argument types) is cast to it, so no operator downstream checks
// either.
type ScalarFunc struct {
	// Name is the SQL-visible function name (case-insensitive).
	Name string
	// Arity is the required argument count; -1 accepts any count.
	Arity int
	// ReturnType infers the output type from argument types. An untyped
	// argument (a bare NULL) is passed as Invalid and is then evaluated
	// as a NULL of the type ReturnType gives.
	ReturnType func(args []vector.Type) (vector.Type, error)
	// Eval computes the result column. It must return a vector whose
	// length equals the input length (all inputs are equal length);
	// Call fails the query otherwise.
	Eval func(args []*vector.Vector) (*vector.Vector, error)
	// Parallel marks the function safe for partitioned execution: the
	// engine may split the input rows across goroutines and call Eval
	// once per partition. Functions whose output row i depends only on
	// input row i (such as model prediction) should set this.
	Parallel bool
}

// TableArg is one argument to a table UDF: either a materialized
// relation (from a subquery) or a scalar parameter.
type TableArg struct {
	Table  *vector.Table // non-nil for relation arguments
	Scalar vector.Value  // used when Table is nil
}

// IsTable reports whether the argument is a relation.
func (a TableArg) IsTable() bool { return a.Table != nil }

// TableFunc is a table-valued UDF usable in FROM clauses, e.g.
// SELECT * FROM train_rf((SELECT ...), 16). The output schema is
// static so queries over the function can be bound before execution.
type TableFunc struct {
	// Name is the SQL-visible function name (case-insensitive).
	Name string
	// Columns declares the output schema.
	Columns []ColumnDecl
	// Fn consumes the evaluated arguments and produces the output
	// relation, whose columns must match Columns. workers is the
	// executing query's worker count, so blocking table UDFs (model
	// training) can parallelize under the engine's parallelism setting;
	// their results must not depend on it. workers <= 0 means "choose"
	// (NumCPU); functions that do not parallelize ignore it.
	Fn func(args []TableArg, workers int) (*vector.Table, error)
}

// ColumnDecl declares one output column of a table UDF.
type ColumnDecl struct {
	Name string
	Type vector.Type
}

// Registry holds the scalar and table UDFs visible to a database
// instance. It is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	scalars map[string]*ScalarFunc
	tables  map[string]*TableFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		scalars: make(map[string]*ScalarFunc),
		tables:  make(map[string]*TableFunc),
	}
}

// RegisterScalar adds a scalar UDF, replacing any previous function of
// the same name.
func (r *Registry) RegisterScalar(f *ScalarFunc) error {
	if f == nil || f.Name == "" || f.Eval == nil || f.ReturnType == nil {
		return fmt.Errorf("core: scalar UDF requires name, return type and eval")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scalars[strings.ToLower(f.Name)] = f
	return nil
}

// RegisterTable adds a table UDF, replacing any previous function of
// the same name.
func (r *Registry) RegisterTable(f *TableFunc) error {
	if f == nil || f.Name == "" || f.Fn == nil || len(f.Columns) == 0 {
		return fmt.Errorf("core: table UDF requires name, schema and fn")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[strings.ToLower(f.Name)] = f
	return nil
}

// Scalar looks up a scalar UDF by name (case-insensitive).
func (r *Registry) Scalar(name string) (*ScalarFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.scalars[strings.ToLower(name)]
	return f, ok
}

// Table looks up a table UDF by name (case-insensitive).
func (r *Registry) Table(name string) (*TableFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.tables[strings.ToLower(name)]
	return f, ok
}

// ScalarNames returns the registered scalar UDF names (unsorted).
func (r *Registry) ScalarNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.scalars))
	for n := range r.scalars {
		out = append(out, n)
	}
	return out
}

// Call evaluates f over rows input rows, args its argument columns, and
// returns a column of type typ — the call's bound type — with one row
// per input row. It is the only place a scalar UDF is evaluated, so what
// the function returns is checked here and nowhere downstream: every
// Eval result must have exactly its input's row count, and a result of
// another type is cast to typ. A Parallel function with arguments is
// split across up to workers goroutines (one Eval per partition, row
// order preserved); any other function is evaluated once. Errors read
// "UDF <name>: …" at every width, and the first failing partition in
// row order decides which.
func (f *ScalarFunc) Call(typ vector.Type, args []*vector.Vector, rows, workers int) (_ *vector.Vector, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("UDF %s: %w", f.Name, err)
		}
	}()
	parts := 1
	if f.Parallel && len(args) > 0 {
		parts = max(1, min(workers, rows))
	}
	outs := make([]*vector.Vector, parts)
	errs := make([]error, parts)
	eval := func(p int) {
		lo, hi := p*rows/parts, (p+1)*rows/parts
		in := args
		if parts > 1 {
			in = make([]*vector.Vector, len(args))
			for i, a := range args {
				in[i] = a.Slice(lo, hi)
			}
		}
		outs[p], errs[p] = f.Eval(in)
		if errs[p] == nil && (outs[p] == nil || outs[p].Len() != hi-lo) {
			errs[p] = errRowCount
		}
	}
	if parts == 1 {
		eval(0)
	} else {
		var wg sync.WaitGroup
		for p := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eval(p)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := outs[0]
	if parts > 1 {
		// Partitions that disagree on a type are cast one by one; a cast
		// of the whole result names rows as the caller numbers them.
		t := out.Type()
		for _, o := range outs {
			if o.Type() != t {
				t = typ
			}
		}
		out = vector.New(t, rows)
		for _, o := range outs {
			o, err := o.Cast(t)
			if err != nil {
				return nil, err
			}
			out.AppendVector(o)
		}
	}
	return out.Cast(typ)
}

// errRowCount is the error of a call whose Eval returned a result of
// another row count than its input. It names no count: those depend on
// how the rows were partitioned.
var errRowCount = errors.New("result row count differs from the input's")

// FixedReturn returns a ReturnType function that always yields t.
func FixedReturn(t vector.Type) func([]vector.Type) (vector.Type, error) {
	return func([]vector.Type) (vector.Type, error) { return t, nil }
}
