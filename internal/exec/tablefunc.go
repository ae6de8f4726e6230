package exec

import (
	"fmt"

	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// tableFuncOp evaluates a table UDF's arguments (running subplans for
// relation arguments), invokes the function once with the query's
// worker count, validates the result
// against the declared schema, and streams it out in chunks.
type tableFuncOp struct {
	spec *plan.TableFuncScan
	tableChunks
}

// tableChunks is the operator of a table — a materialized relation, or
// the result of a table function or a holistic projection — emitted in
// chunk-sized slices.
type tableChunks struct {
	data *vector.Table
	next int // the first chunk not yet emitted
}

func (t *tableChunks) Open(*Context) error {
	t.next = 0
	return nil
}

func (t *tableChunks) Next() (*vector.Chunk, error) {
	if t.data == nil || t.next*vector.DefaultChunkSize >= t.data.NumRows() {
		return nil, nil
	}
	from := t.next * vector.DefaultChunkSize
	t.next++
	return t.data.Chunk().Slice(from, min(from+vector.DefaultChunkSize, t.data.NumRows())), nil
}

func (t *tableChunks) Close() error { return nil }

func (t *tableFuncOp) Open(ctx *Context) error {
	args := make([]core.TableArg, len(t.spec.Args))
	for i, a := range t.spec.Args {
		if a.Sub != nil {
			tab, err := Run(a.Sub, ctx)
			if err != nil {
				return fmt.Errorf("exec: argument %d of %s: %w", i+1, t.spec.Fn.Name, err)
			}
			args[i] = core.TableArg{Table: tab}
			continue
		}
		v, err := plan.EvalConst(a.ConstExpr)
		if err != nil {
			return fmt.Errorf("exec: argument %d of %s: %w", i+1, t.spec.Fn.Name, err)
		}
		args[i] = core.TableArg{Scalar: v}
	}
	out, err := t.spec.Fn.Fn(args, ctx.Workers())
	if err != nil {
		return fmt.Errorf("exec: table function %s: %w", t.spec.Fn.Name, err)
	}
	if out.NumCols() != len(t.spec.Fn.Columns) {
		return fmt.Errorf("exec: table function %s returned %d columns, declared %d",
			t.spec.Fn.Name, out.NumCols(), len(t.spec.Fn.Columns))
	}
	// Cast returned columns to the declared schema when needed.
	for i, decl := range t.spec.Fn.Columns {
		if out.Cols[i].Type() != decl.Type {
			cc, err := out.Cols[i].Cast(decl.Type)
			if err != nil {
				return fmt.Errorf("exec: table function %s column %q: %w", t.spec.Fn.Name, decl.Name, err)
			}
			out.Cols[i] = cc
		}
	}
	t.tableChunks = tableChunks{data: out}
	return nil
}
