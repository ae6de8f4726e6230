package exec

import (
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// mlProjectOp is the projection over a holistic UDF call — one not
// marked Parallel, whose output row i may depend on any input row. It
// drains its child, evaluates the projection once over the whole input,
// as MonetDB/Python vectorized UDFs see whole columns, and emits the
// result in chunk-sized slices as tableFuncOp does. Cancellation is
// observed between input chunks. A projection whose calls are all
// Parallel (model prediction) is no operator of its own: it is a stage
// of a morsel pipeline, over a scan or a join alike (pipeline).
type mlProjectOp struct {
	exprs []plan.Expr
	child Operator
	ctx   *Context
	out   tableChunks // the result; its data is nil until the input is drained
}

func (p *mlProjectOp) Open(ctx *Context) error {
	p.ctx, p.out = ctx, tableChunks{}
	return p.child.Open(ctx)
}

func (p *mlProjectOp) Next() (*vector.Chunk, error) {
	if p.out.data == nil {
		if err := p.evaluate(); err != nil {
			return nil, err
		}
	}
	return p.out.Next()
}

// evaluate drains the child and evaluates the projection over all of
// its rows; an empty input calls nothing.
func (p *mlProjectOp) evaluate() error {
	var all spillBuf
	err := opPipe(p.child, 1).forEach(p.ctx, 1, func(_, _ int, ch *vector.Chunk) error {
		all.add(ch.Cols())
		return nil
	})
	if err != nil {
		return err
	}
	p.out.data = &vector.Table{}
	if all.rows() == 0 {
		return nil
	}
	in := vector.NewChunk(all.cols...)
	for _, e := range p.exprs {
		v, err := plan.Evaluate(e, in)
		if err != nil {
			return err
		}
		p.out.data.Cols = append(p.out.data.Cols, v)
	}
	return nil
}

func (p *mlProjectOp) Close() error { return p.child.Close() }
