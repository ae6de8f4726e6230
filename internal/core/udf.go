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
	"fmt"
	"strings"
	"sync"

	"vexdb/internal/vector"
)

// ScalarFunc is a vectorized scalar UDF. Eval receives full column
// vectors of equal length and returns one vector of the same length.
type ScalarFunc struct {
	// Name is the SQL-visible function name (case-insensitive).
	Name string
	// Arity is the required argument count; -1 accepts any count.
	Arity int
	// ReturnType infers the output type from argument types.
	ReturnType func(args []vector.Type) (vector.Type, error)
	// Eval computes the result column. It must return a vector whose
	// length equals the input length (all inputs are equal length).
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

// EvalPartitioned runs a Parallel scalar UDF split across nparts
// partitions of the input vectors, preserving row order. Functions not
// marked Parallel, inputs shorter than 2 rows, or nparts < 2 fall back
// to a single Eval call.
func EvalPartitioned(f *ScalarFunc, args []*vector.Vector, nparts int) (*vector.Vector, error) {
	n := 0
	if len(args) > 0 {
		n = args[0].Len()
	}
	if !f.Parallel || nparts < 2 || n < 2 {
		return f.Eval(args)
	}
	if nparts > n {
		nparts = n
	}
	type result struct {
		idx int
		out *vector.Vector
		err error
	}
	results := make([]result, nparts)
	var wg sync.WaitGroup
	for p := 0; p < nparts; p++ {
		lo := p * n / nparts
		hi := (p + 1) * n / nparts
		part := make([]*vector.Vector, len(args))
		for i, a := range args {
			part[i] = a.Slice(lo, hi)
		}
		wg.Add(1)
		go func(p int, part []*vector.Vector) {
			defer wg.Done()
			out, err := f.Eval(part)
			results[p] = result{idx: p, out: out, err: err}
		}(p, part)
	}
	wg.Wait()
	var out *vector.Vector
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if out == nil {
			out = r.out
			continue
		}
		out.AppendVector(r.out)
	}
	if out.Len() != n {
		return nil, fmt.Errorf("core: partitioned UDF %s returned %d rows for %d inputs", f.Name, out.Len(), n)
	}
	return out, nil
}

// FixedReturn returns a ReturnType function that always yields t.
func FixedReturn(t vector.Type) func([]vector.Type) (vector.Type, error) {
	return func([]vector.Type) (vector.Type, error) { return t, nil }
}
