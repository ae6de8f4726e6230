package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

func bigMaterial(t *testing.T, rows int) *plan.Material {
	t.Helper()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab, err := vector.NewTable([]string{"x"}, []*vector.Vector{vector.FromInt64s(vals)})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Material{
		Data:  tab,
		Schem: catalog.Schema{{Name: "x", Type: vector.Int64}},
	}
}

func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A LIMIT above a parallel pipeline must stop the stream after the
// requested rows, and Close must join all scan workers.
func TestChunkStreamLimitEarlyExit(t *testing.T) {
	before := runtime.NumGoroutine()
	node := plan.Node(&plan.Limit{Count: 5, Offset: 0, Child: bigMaterial(t, 100_000)})
	s, err := Stream(node, &Context{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for {
		ch, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
		rows += ch.NumRows()
	}
	if rows != 5 {
		t.Fatalf("LIMIT 5 streamed %d rows", rows)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// countingSource counts fetches so tests can assert workers did not
// race through the whole input.
type countingSource struct {
	rows    int
	perMors int
	fetches atomic.Int64
	delay   time.Duration
	cur     morselCursor
}

func (c *countingSource) morsels() int { return (c.rows + c.perMors - 1) / c.perMors }

func (c *countingSource) start(*Context) { c.cur.reset(c.morsels()) }

func (c *countingSource) claim(*pipeScratch) (int, *vector.Chunk, bool, error) {
	i, ok := c.cur.take()
	if !ok {
		return i, nil, false, nil
	}
	c.fetches.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	from := i * c.perMors
	to := from + c.perMors
	if to > c.rows {
		to = c.rows
	}
	vals := make([]int64, to-from)
	for j := range vals {
		vals[j] = int64(from + j)
	}
	return i, vector.NewChunk(vector.FromInt64s(vals)), true, nil
}

// Abandoning a stream early (client disconnect) must stop workers with
// bounded extra fetches: at most consumed + run-ahead window + one
// in-flight morsel per worker.
func TestChunkStreamCloseStopsFetches(t *testing.T) {
	const workers = 2
	src := &countingSource{rows: 64 * 16, perMors: 16}
	op := &parallelPipeOp{pipe: &pipeSpec{src: src, workers: workers}}
	qctx, cancel := context.WithCancelCause(context.Background())
	ctx := &Context{Parallelism: workers, Ctx: qctx}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	s := &ChunkStream{op: op, schema: catalog.Schema{{Name: "x", Type: vector.Int64}}, ctx: qctx, cancel: cancel}
	if ch, err := s.Next(); err != nil || ch == nil {
		t.Fatalf("first chunk: %v %v", ch, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 1 consumed + 2*workers run-ahead + workers in-flight claims.
	if got := src.fetches.Load(); got > int64(1+3*workers) {
		t.Fatalf("%d morsels fetched after consuming 1 chunk; early close did not stop workers", got)
	}
}

// Cancel from another goroutine must unblock a consumer waiting in
// Next and surface ErrCancelled.
func TestChunkStreamCancelUnblocksNext(t *testing.T) {
	const workers = 2
	src := &countingSource{rows: 1 << 20, perMors: 8, delay: 2 * time.Millisecond}
	op := &parallelPipeOp{pipe: &pipeSpec{src: src, workers: workers}}
	qctx, cancel := context.WithCancelCause(context.Background())
	ctx := &Context{Parallelism: workers, Ctx: qctx}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	s := &ChunkStream{op: op, schema: catalog.Schema{{Name: "x", Type: vector.Int64}}, ctx: qctx, cancel: cancel}
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Cancel()
	}()
	var err error
	for err == nil {
		var ch *vector.Chunk
		ch, err = s.Next()
		if err == nil && ch == nil {
			t.Fatal("stream drained 1M rows before cancel")
		}
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, total := src.fetches.Load(), int64(src.morsels()); got >= total {
		t.Fatalf("all %d morsels fetched despite cancel", total)
	}
}

// Run must stay equivalent to Stream+Materialize (Run is now a thin
// wrapper, but guard the contract).
func TestRunMatchesStream(t *testing.T) {
	node := plan.Node(bigMaterial(t, 10_000))
	ran, err := Run(node, &Context{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stream(node, &Context{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	streamed, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if ran.NumRows() != streamed.NumRows() {
		t.Fatalf("rows: run %d, stream %d", ran.NumRows(), streamed.NumRows())
	}
	for i := 0; i < ran.NumRows(); i += 997 {
		if ran.Cols[0].Int64s()[i] != streamed.Cols[0].Int64s()[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

// Cancel must keep its contract when the caller supplied its own
// context: the stream's context is a child of it.
func TestCancelWithCallerSuppliedDone(t *testing.T) {
	ext, cancel := context.WithCancel(context.Background()) // never cancelled before the stream
	defer cancel()
	s, err := Stream(plan.Node(bigMaterial(t, 1_000_000)), &Context{Parallelism: 2, Ctx: ext})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	drained := 0
	for {
		ch, err := s.Next()
		if err != nil {
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			break
		}
		if ch == nil {
			t.Fatal("stream fully drained; Cancel was not propagated past the caller's context")
		}
		drained += ch.NumRows()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Cancelling the caller's context must cancel the stream too.
func TestCallerDoneCancelsStream(t *testing.T) {
	ext, cancel := context.WithCancel(context.Background())
	s, err := Stream(plan.Node(bigMaterial(t, 1_000_000)), &Context{Parallelism: 2, Ctx: ext})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		ch, err := s.Next()
		if err != nil {
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			break
		}
		if ch == nil {
			t.Fatal("stream fully drained; the caller's context was not observed")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
