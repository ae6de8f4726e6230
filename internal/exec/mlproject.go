package exec

import (
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// mlProjectOp is the vectorized projection over UDF calls — the engine's
// PREDICT operator. Row-local (Parallel) calls score each arriving chunk
// as it is pulled: memory stays O(chunk) no matter the input size, LIMIT
// consumers stop the scan early, and a memory-governed query never needs
// to spill its scored input. A holistic call (not Parallel: output row i
// may depend on any input row) makes the input whole — the child is
// drained before the one evaluation. Either way the evaluated columns
// are emitted in standard-sized slices (a join can hand over more than
// DefaultChunkSize rows at once), so downstream operators and the wire
// never see an oversized chunk; row-local calls give the same bytes
// sliced before or after. Cancellation is observed at every chunk
// boundary.
//
// Parallel calls are partitioned across the context's worker count by
// core.ScalarFunc.Call.
type mlProjectOp struct {
	exprs []plan.Expr
	child Operator
	whole bool // some call is not Parallel (derived from the plan)
	ctx   *Context
	out   *vector.Chunk // evaluated rows not yet emitted
	done  bool          // the child is exhausted
}

func (p *mlProjectOp) Open(ctx *Context) error {
	p.ctx, p.out, p.done = ctx, nil, false
	return p.child.Open(ctx)
}

func (p *mlProjectOp) Next() (*vector.Chunk, error) {
	for p.out == nil {
		if p.ctx.interrupted() {
			return nil, ErrCancelled
		}
		if p.done {
			return nil, nil
		}
		in, err := p.input()
		if err != nil {
			return nil, err
		}
		if in == nil || in.NumRows() == 0 {
			continue
		}
		cols := make([]*vector.Vector, len(p.exprs))
		for i, e := range p.exprs {
			if cols[i], err = p.evalExpr(e, in); err != nil {
				return nil, err
			}
		}
		p.out = vector.NewChunk(cols...)
	}
	ch := p.out
	if n := ch.NumRows(); n > vector.DefaultChunkSize {
		ch, p.out = ch.Slice(0, vector.DefaultChunkSize), ch.Slice(vector.DefaultChunkSize, n)
	} else {
		p.out = nil
	}
	return ch, nil
}

// input returns the next rows to evaluate: the child's next chunk or,
// for a holistic projection, all of its chunks as one.
func (p *mlProjectOp) input() (*vector.Chunk, error) {
	if p.whole {
		var all spillBuf
		p.done = true
		err := (&chunkFeed{child: p.child}).forEach(p.ctx, 1, func(_, _ int, ch *vector.Chunk) error {
			all.add(ch.Cols())
			return nil
		})
		return vector.NewChunk(all.cols...), err
	}
	ch, err := p.child.Next()
	p.done = ch == nil
	return ch, err
}

// evalExpr evaluates one expression over a chunk, partitioning Parallel
// UDF calls at its top, and in their arguments, across workers.
func (p *mlProjectOp) evalExpr(e plan.Expr, in *vector.Chunk) (*vector.Vector, error) {
	if call, ok := e.(*plan.Call); ok && call.Fn.Parallel {
		args := make([]*vector.Vector, len(call.Args))
		for i, a := range call.Args {
			v, err := p.evalExpr(a, in)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return call.Fn.Call(call.Typ, args, in.NumRows(), p.ctx.Workers())
	}
	return plan.Evaluate(e, in)
}

func (p *mlProjectOp) Close() error { return p.child.Close() }
