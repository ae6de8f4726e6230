package exec

import (
	"context"
	"errors"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// scanTable builds a single-column BIGINT base table of 0..rows-1
// (sorted, so zone maps are selective).
func scanTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	store := storage.NewColumnStore([]vector.Type{vector.Int64})
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := store.AppendChunk(vector.NewChunk(vector.FromInt64s(vals))); err != nil {
		t.Fatal(err)
	}
	return &catalog.Table{
		Name:   "t",
		Schema: catalog.Schema{{Name: "x", Type: vector.Int64}},
		Data:   store,
	}
}

// drainScan builds a scan, filtered or not, at width workers, as
// Stream would, and returns every chunk it delivers; ctx must carry a
// profile.
func drainScan(t *testing.T, scan plan.Node, ctx *Context) []*vector.Chunk {
	t.Helper()
	op, err := buildWith(scan, ctx.Parallelism, ctx.prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out []*vector.Chunk
	for {
		ch, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			return out
		}
		out = append(out, ch)
	}
}

// A scan must deliver every row in order at every width, and no chunk
// it handed out may change afterwards: every chunk is checked only
// once the scan is drained, after later segments were decoded.
func TestScanOrderAndBufferSafety(t *testing.T) {
	rows := storage.SegmentRows*3 + 57
	tab := scanTable(t, rows)
	for _, workers := range []int{1, 2} {
		next := int64(0)
		for _, ch := range drainScan(t, &plan.Scan{Table: tab}, &Context{Parallelism: workers, prof: &Profile{}}) {
			for _, x := range ch.Col(0).Int64s() {
				if x != next {
					t.Fatalf("workers=%d: row %d out of order or overwritten: %d", workers, next, x)
				}
				next++
			}
		}
		if next != int64(rows) {
			t.Fatalf("workers=%d: scanned %d rows, want %d", workers, next, rows)
		}
	}
}

// geFilter is the filter x >= lo over a scan of scanTable's table.
func geFilter(tab *catalog.Table, lo int64) *plan.Filter {
	return &plan.Filter{
		Pred: &plan.BinOp{
			Op:    sql.OpGe,
			Left:  &plan.ColRef{Idx: 0, Typ: vector.Int64, Name: "x"},
			Right: &plan.Const{Val: vector.NewInt64(lo), Typ: vector.Int64},
			Typ:   vector.Bool,
		},
		Child: &plan.Scan{Table: tab},
	}
}

// A filter fused into its scan skips the segments its kernels refute,
// and a scan without one reads every segment.
func TestScanPrunesSegments(t *testing.T) {
	rows := storage.SegmentRows * 4
	tab := scanTable(t, rows)
	for _, workers := range []int{1, 2} {
		for _, c := range []struct {
			node             plan.Node
			rows             int
			scanned, skipped int64
		}{
			{geFilter(tab, int64(rows-100)), 100, 1, 3},
			{&plan.Scan{Table: tab}, rows, 4, 0},
		} {
			stats := &Profile{}
			var got int
			for _, ch := range drainScan(t, c.node, &Context{Parallelism: workers, prof: stats}) {
				got += ch.NumRows()
			}
			if got != c.rows || stats.Scanned() != c.scanned || stats.Skipped() != c.skipped {
				t.Fatalf("workers=%d %T: %d rows, scanned=%d skipped=%d, want %d rows, %d/%d",
					workers, c.node, got, stats.Scanned(), stats.Skipped(), c.rows, c.scanned, c.skipped)
			}
		}
	}
}

// Blocking operators fed by a child (sort, aggregate, DISTINCT) and
// the filter stages over one must observe the query context between chunks
// instead of running to completion. The child ignores cancellation, so
// only the operator's own drain loop can stop.
func TestSerialDrainLoopsObserveCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &Context{Parallelism: 1, Ctx: cancelled}
	child := func() Operator {
		return &tableOp{data: bigMaterialTable(t, 10_000)}
	}

	sortop := &sortOp{spec: &plan.Sort{Keys: []plan.SortKey{{Expr: &plan.ColRef{Idx: 0, Typ: vector.Int64}}}}, st: &nodeStats{}, in: opPipe(child(), 1)}
	if err := sortop.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sortop.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("sort: err = %v, want ErrCancelled", err)
	}

	agg := &aggOp{spec: &plan.Aggregate{}, st: &nodeStats{}, in: opPipe(child(), 1)}
	if err := agg.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("agg: err = %v, want ErrCancelled", err)
	}

	dist := &aggOp{spec: &plan.Aggregate{GroupBy: []plan.Expr{&plan.ColRef{Idx: 0, Typ: vector.Int64}}, GroupNames: []string{"x"}}, st: &nodeStats{}, in: opPipe(child(), 1)}
	if err := dist.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("distinct: err = %v, want ErrCancelled", err)
	}

	filt := &parallelPipeOp{pipe: &pipeSpec{src: &opSource{op: child()}, stages: []pipeStage{{where: CompileWhere(&plan.Const{Val: vector.NewBool(false), Typ: vector.Bool}), st: &nodeStats{}}}, workers: 1}}
	if err := filt.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := filt.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("filter: err = %v, want ErrCancelled", err)
	}
}

// tableOp emits a table in chunk-sized slices and never looks at the
// context.
type tableOp struct {
	data *vector.Table
	pos  int
}

func (o *tableOp) Open(*Context) error { o.pos = 0; return nil }

func (o *tableOp) Next() (*vector.Chunk, error) {
	if o.pos >= o.data.NumRows() {
		return nil, nil
	}
	end := min(o.pos+vector.DefaultChunkSize, o.data.NumRows())
	ch := o.data.Chunk().Slice(o.pos, end)
	o.pos = end
	return ch, nil
}

func (o *tableOp) Close() error { return nil }

func bigMaterialTable(t *testing.T, rows int) *vector.Table {
	t.Helper()
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	tab, err := vector.NewTable([]string{"x"}, []*vector.Vector{vector.FromInt64s(vals)})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Parallel scans prune too: the morsel source must skip segments
// before decode at every worker count.
func TestParallelScanPrunes(t *testing.T) {
	rows := storage.SegmentRows * 6
	tab := scanTable(t, rows)
	node := geFilter(tab, int64(rows-10))
	for _, workers := range []int{1, 2, 8} {
		stats := &Profile{}
		out, err := Run(node, &Context{Parallelism: workers, prof: stats})
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 10 {
			t.Fatalf("workers=%d rows = %d", workers, out.NumRows())
		}
		if stats.Skipped() != 5 || stats.Scanned() != 1 {
			t.Fatalf("workers=%d scanned=%d skipped=%d", workers, stats.Scanned(), stats.Skipped())
		}
	}
}
