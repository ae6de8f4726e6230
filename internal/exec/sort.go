// The sort operator, built on the shared run machinery in merge.go. Run
// generation accumulates rows (spilling whole sorted runs to disk when
// the query's memory budget is exceeded, and keeping only the top-k rows
// when a LIMIT bounds the observable output); a loser-tree merge then
// streams fully sorted chunks incrementally. The global input position
// tiebreak makes every configuration — serial or parallel, in-memory or
// spilled, any worker count, any budget — byte-identical to a serial
// stable sort.
package exec

import (
	"runtime"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// sortOp is the ORDER BY operator: a child drains into one run builder,
// a morsel pipeline, fanned out over the worker pool, into one per
// worker; Next streams merged chunks, observing cancellation between
// merge batches and stopping early once the plan's LIMIT bound is met.
type sortOp struct {
	spec *plan.Sort
	st   *nodeStats
	in   *pipeSpec

	ctx    *Context
	merger *runMerger
}

func (s *sortOp) Open(ctx *Context) error {
	s.ctx, s.merger = ctx, nil
	return s.in.open(ctx)
}

func (s *sortOp) Next() (*vector.Chunk, error) {
	if s.merger == nil {
		builders, err := s.fillBuilders()
		if err == nil {
			s.merger, err = finishBuilders(s.ctx, s.spec.Limit, builders)
		}
		if err != nil {
			return nil, err
		}
	}
	return s.merger.next(s.ctx)
}

// fillBuilders drains the input into run builders: each worker
// accumulates the morsels it claims in its own, spilling sorted runs
// whenever the shared budget is exceeded. A row's position is
// (morsel, row). A cancelled drain surfaces ErrCancelled rather than
// merging a partial input.
func (s *sortOp) fillBuilders() ([]*runBuilder, error) {
	// Context.Parallelism is an upper bound on concurrency, but more
	// runs than threads the scheduler will run add no sort parallelism —
	// they only widen the merge, which is pure overhead on the consumer.
	// (Budget-forced spilling can still produce more runs: each spill of
	// a worker's buffer is its own run.)
	runCap := sortRunCap
	if runCap < 1 {
		runCap = runtime.GOMAXPROCS(0)
	}
	builders := make([]*runBuilder, max(min(s.in.workers, runCap), 1))
	for w := range builders {
		builders[w] = newRunBuilder(s.ctx, s.spec.Keys, s.spec.Limit, "sort", s.st)
	}
	err := s.in.forEach(s.ctx, len(builders), func(w, i int, ch *vector.Chunk) error {
		return builders[w].add(ch, int64(i)<<32)
	})
	if err != nil {
		// A merge over partial runs would silently drop rows.
		releaseBuilders(builders)
		return nil, err
	}
	return builders, nil
}

// releaseBuilders drops the buffers and spill files of builders whose
// runs will never be merged.
func releaseBuilders(builders []*runBuilder) {
	for _, b := range builders {
		b.ctx.memShrink(b.bytes)
		b.bytes = 0
		if b.file != nil {
			b.file.Release()
		}
	}
}

func (s *sortOp) Close() error {
	// Run generation joins its workers before fillBuilders returns, so
	// nothing is in flight here.
	s.merger.close()
	return s.in.close()
}
