// Sort operators: the serial sortOp and the morsel-parallel
// parallelSortOp, both built on the shared run machinery in merge.go.
// Run generation accumulates rows (spilling whole sorted runs to disk
// when the query's memory budget is exceeded, and keeping only the
// top-k rows when a LIMIT bounds the observable output); a loser-tree
// merge then streams fully sorted chunks incrementally. The global
// input position tiebreak makes every configuration — serial or
// parallel, in-memory or spilled, any worker count, any budget —
// byte-identical to a serial stable sort.
package exec

import (
	"runtime"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// ----------------------------------------------------------------- serial

// sortOp is the serial ORDER BY operator. It drains its child into a
// run builder (external runs under memory pressure, top-k compaction
// under a LIMIT hint) and streams the merged output.
type sortOp struct {
	spec   *plan.Sort
	child  Operator
	ctx    *Context
	merger *runMerger
}

func (s *sortOp) Open(ctx *Context) error {
	s.ctx = ctx
	s.merger = nil
	return s.child.Open(ctx)
}

func (s *sortOp) Next() (*vector.Chunk, error) {
	if s.merger == nil {
		b := newRunBuilder(s.ctx, s.spec.Keys, s.spec.Limit, "sort")
		var rows int64
		for {
			if s.ctx.interrupted() {
				return nil, ErrCancelled
			}
			ch, err := s.child.Next()
			if err != nil {
				return nil, err
			}
			if ch == nil {
				break
			}
			if err := b.add(ch, rows); err != nil {
				return nil, err
			}
			rows += int64(ch.NumRows())
		}
		m, err := finishBuilders(s.ctx, s.spec.Limit, []*runBuilder{b})
		if err != nil {
			return nil, err
		}
		s.merger = m
	}
	return s.merger.next(s.ctx)
}

func (s *sortOp) Close() error {
	s.merger.close()
	return s.child.Close()
}

// ----------------------------------------------------------------- parallel

// parallelSortOp is the morsel-parallel ORDER BY operator: run
// generation fans out over the worker pool (each worker owning a run
// builder that spills under budget pressure), then Next streams merged
// chunks off the loser tree, observing cancellation between merge
// batches and stopping early once the plan's LIMIT bound is met.
type parallelSortOp struct {
	spec    *plan.Sort
	pipe    *pipeSpec
	workers int

	ctx     *Context
	started bool
	merger  *runMerger
}

func (s *parallelSortOp) Open(ctx *Context) error {
	s.ctx = ctx
	s.started = false
	s.merger = nil
	return nil
}

func (s *parallelSortOp) Next() (*vector.Chunk, error) {
	if !s.started {
		s.started = true
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

// fillBuilders drains the input morsel-parallel into run builders:
// each worker accumulates claimed morsels in its own, spilling sorted
// runs whenever the shared budget is exceeded. Workers observe
// cancellation between morsels; a cancelled drain surfaces
// ErrCancelled rather than merging a partial input.
func (s *parallelSortOp) fillBuilders() ([]*runBuilder, error) {
	// Context.Parallelism is an upper bound on concurrency, but more
	// runs than threads the scheduler will run add no sort parallelism —
	// they only widen the merge, which is pure overhead on the consumer.
	// (Budget-forced spilling can still produce more runs: each spill of
	// a worker's buffer is its own run.)
	runCap := sortRunCap
	if runCap < 1 {
		runCap = runtime.GOMAXPROCS(0)
	}
	builders := make([]*runBuilder, max(min(s.workers, runCap), 1))
	for w := range builders {
		builders[w] = newRunBuilder(s.ctx, s.spec.Keys, s.spec.Limit, "sort")
	}
	err := s.pipe.forEach(s.ctx, len(builders), func(w, i int, ch *vector.Chunk) error {
		return builders[w].add(ch, int64(i)<<32)
	})
	if err != nil {
		// A merge over partial runs would silently drop rows.
		releaseBuilders(builders)
		return nil, err
	}
	return builders, nil
}

// releaseBuilders drops the spill files of builders whose runs will
// never be merged.
func releaseBuilders(builders []*runBuilder) {
	for _, b := range builders {
		if b.file != nil {
			b.file.Release()
		}
	}
}

func (s *parallelSortOp) Close() error {
	// Run generation joins its workers before buildRuns returns, so
	// nothing is in flight here; finish is idempotent and flushes scan
	// accounting when the stream is abandoned before the first Next.
	s.pipe.src.finish()
	s.merger.close()
	return nil
}

var _ Operator = (*parallelSortOp)(nil)
