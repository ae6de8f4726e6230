package exec

import (
	"context"
	"errors"
	"sync"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// ErrCancelled is returned by ChunkStream.Next after the stream has
// been cancelled by Close or Cancel, or by a caller context cancelled
// without a cause.
var ErrCancelled = errors.New("exec: query cancelled")

// ChunkStream is the streaming form of Run: the root operator's output
// is pulled one chunk at a time instead of materialized into a table.
// Chunks come out in the exact order serial execution would produce.
//
// Next and Close must be called from the consuming goroutine. Cancel
// may be called from any goroutine (e.g. a server shutting down a
// connection): it cancels the stream's context, which the
// morsel-parallel operators observe between morsels and Next observes
// between chunks, so a blocked Next returns ErrCancelled promptly and
// scan workers stop instead of racing through the whole input.
type ChunkStream struct {
	op       Operator
	schema   catalog.Schema
	prof     *Profile
	ownsProf bool           // created prof: flushes its scan counts on Close
	spillMgr *spill.Manager // owned: closed (files removed) on Close

	ctx       context.Context         // the query's context, child of the caller's
	cancel    context.CancelCauseFunc // cancels ctx; fired by Cancel and Close
	closeOnce sync.Once
	closeErr  error
	done      bool
	onClose   func() // the caller Context's OnClose hook, fired once by Close
}

// Stream builds and opens a plan as a chunk-pull stream. The caller
// must Close the stream (even after an error from Next) to stop any
// parallel workers the plan started.
func Stream(node plan.Node, ctx *Context) (*ChunkStream, error) {
	if ctx == nil {
		ctx = &Context{}
	}
	// The operators watch a child of the caller's context, so the
	// stream's own Cancel/Close and the caller's cancellation or
	// deadline stop them alike. The caller's Context is copied, not
	// mutated.
	c2 := *ctx
	if c2.Ctx == nil {
		c2.Ctx = context.Background()
	}
	qctx, cancel := context.WithCancelCause(c2.Ctx)
	c2.Ctx = qctx
	onClose := c2.OnClose
	c2.OnClose = nil
	// The query's profile: nested streams (table-UDF subplans) re-enter
	// with it set and add their nodes to it.
	ownsProf := c2.prof == nil
	if ownsProf {
		c2.prof = &Profile{}
	}
	// A memory budget arms out-of-core execution: one tracker and one
	// spill-file manager shared by every operator of the query. The
	// manager's directory is created lazily on first spill and removed
	// when the stream closes, so error, cancel and success paths all
	// leave TempDir clean (callers must Close even after errors —
	// already the stream contract). Nested streams (table-UDF
	// subplans) re-enter here with mem already set and share the
	// budget, but own their own manager.
	var ownedMgr *spill.Manager
	if c2.MemoryBudget > 0 {
		if c2.mem == nil {
			c2.mem = newMemTracker(c2.MemoryBudget)
			c2.mem.live = c2.LiveBudget
		}
		ownedMgr = spill.NewManager(c2.TempDir, c2.prof)
		c2.spillMgr = ownedMgr
	}
	ctx = &c2
	op, err := buildWith(node, ctx.Workers(), ctx.prof)
	if err == nil {
		if err = op.Open(ctx); err != nil {
			// A failed Open can leave earlier-opened subtrees running
			// (parallel operators start workers in Open); Close
			// cascades the shutdown.
			err = cancelErr(qctx, err)
			op.Close()
		}
	}
	if err != nil {
		cancel(nil)
		if ownedMgr != nil {
			ownedMgr.Close()
		}
		return nil, err
	}
	return &ChunkStream{op: op, schema: node.Schema(), prof: ctx.prof, ownsProf: ownsProf,
		spillMgr: ownedMgr, ctx: qctx, cancel: cancel, onClose: onClose}, nil
}

// cancelErr reports an operator's ErrCancelled as the reason the
// query's context ended — the cause its canceller gave (a deadline, a
// client's cancel), or ErrCancelled for a bare context.Canceled.
func cancelErr(ctx context.Context, err error) error {
	if !errors.Is(err, ErrCancelled) || ctx.Err() == nil {
		return err
	}
	if cause := context.Cause(ctx); cause != context.Canceled {
		return cause
	}
	return ErrCancelled
}

// Schema returns the stream's column names and types.
func (s *ChunkStream) Schema() catalog.Schema { return s.schema }

// Profile returns the query's execution profile: per-node counters and
// their totals (segments scanned and skipped, partitions and runs
// spilled, spill bytes). It is live until the stream is drained or
// closed.
func (s *ChunkStream) Profile() *Profile { return s.prof }

// Next returns the next result chunk, whose columns are of the declared
// schema's types, or (nil, nil) when the stream is exhausted. After an
// error the stream is done; further calls return (nil, nil).
func (s *ChunkStream) Next() (*vector.Chunk, error) {
	if s.done {
		return nil, nil
	}
	var ch *vector.Chunk
	err := ErrCancelled
	select {
	case <-s.ctx.Done():
	default:
		ch, err = s.op.Next()
	}
	if err != nil {
		s.done = true
		return nil, cancelErr(s.ctx, err)
	}
	s.done = ch == nil
	return ch, nil
}

// Cancel requests termination without closing the operators: Next
// then returns ErrCancelled. It is safe to call from any goroutine and
// more than once; the consuming goroutine still owns the Close call.
func (s *ChunkStream) Cancel() { s.cancel(ErrCancelled) }

// Close cancels the stream and shuts the operator tree down, stopping
// and joining any parallel workers. Safe to call more than once.
func (s *ChunkStream) Close() error {
	s.Cancel()
	s.closeOnce.Do(func() {
		s.done = true
		s.closeErr = s.op.Close()
		// Remove the query's spill files after the operators released
		// them; a failed removal surfaces unless operator close
		// already failed.
		if err := s.spillMgr.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if s.ownsProf {
			s.prof.noteScans()
		}
		if s.onClose != nil {
			s.onClose()
		}
	})
	return s.closeErr
}
