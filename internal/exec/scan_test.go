package exec

import (
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

// drainScan builds a scan of tab at width workers, as Stream would,
// and returns every chunk it delivers.
func drainScan(t *testing.T, scan *plan.Scan, ctx *Context) []*vector.Chunk {
	t.Helper()
	op, err := buildWith(scan, ctx.Parallelism)
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
		for _, ch := range drainScan(t, &plan.Scan{Table: tab}, &Context{Parallelism: workers}) {
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

func TestScanPrunesSegments(t *testing.T) {
	rows := storage.SegmentRows * 4
	tab := scanTable(t, rows)
	preds := []plan.ScanPredicate{{Col: 0, Op: sql.OpGe, Val: vector.NewInt64(int64(rows - 100))}}
	for _, workers := range []int{1, 2} {
		stats := &ScanStats{}
		var got int
		for _, ch := range drainScan(t, &plan.Scan{Table: tab, Preds: preds}, &Context{Parallelism: workers, Stats: stats}) {
			got += ch.NumRows()
		}
		// Pruning is segment-granular: the matching segment is delivered
		// whole (the row filter narrows it later).
		if got != storage.SegmentRows {
			t.Fatalf("workers=%d: delivered %d rows, want one segment", workers, got)
		}
		if stats.Skipped() != 3 || stats.Scanned() != 1 {
			t.Fatalf("workers=%d: scanned=%d skipped=%d, want 1/3", workers, stats.Scanned(), stats.Skipped())
		}
	}
}

func TestSegmentPrunableOperators(t *testing.T) {
	zone := func(min, max int64) []storage.ZoneMap {
		v := vector.FromInt64s([]int64{min, max})
		z := storage.ZoneMap{Rows: 2}
		z.Min, z.Max = v.Get(0), v.Get(1)
		return []storage.ZoneMap{z}
	}
	pred := func(op sql.BinaryOp, val int64) []plan.ScanPredicate {
		return []plan.ScanPredicate{{Col: 0, Op: op, Val: vector.NewInt64(val)}}
	}
	cases := []struct {
		name  string
		zones []storage.ZoneMap
		preds []plan.ScanPredicate
		want  bool
	}{
		{"eq-below", zone(10, 20), pred(sql.OpEq, 5), true},
		{"eq-above", zone(10, 20), pred(sql.OpEq, 25), true},
		{"eq-inside", zone(10, 20), pred(sql.OpEq, 15), false},
		{"lt-at-min", zone(10, 20), pred(sql.OpLt, 10), true},
		{"lt-above-min", zone(10, 20), pred(sql.OpLt, 11), false},
		{"le-below-min", zone(10, 20), pred(sql.OpLe, 9), true},
		{"le-at-min", zone(10, 20), pred(sql.OpLe, 10), false},
		{"gt-at-max", zone(10, 20), pred(sql.OpGt, 20), true},
		{"gt-below-max", zone(10, 20), pred(sql.OpGt, 19), false},
		{"ge-above-max", zone(10, 20), pred(sql.OpGe, 21), true},
		{"ge-at-max", zone(10, 20), pred(sql.OpGe, 20), false},
		{"no-zones", nil, pred(sql.OpEq, 5), false},
		{"no-stats", []storage.ZoneMap{{}}, pred(sql.OpEq, 5), false},
		{"all-null", []storage.ZoneMap{{Rows: 4, NullCount: 4}}, pred(sql.OpGe, 0), true},
	}
	for _, c := range cases {
		if got := SegmentPrunable(c.zones, c.preds); got != c.want {
			t.Errorf("%s: prunable = %v, want %v", c.name, got, c.want)
		}
	}
}

// Blocking operators fed by a child (sort, aggregate, DISTINCT) and
// the filter stages over one must observe Context.Done between chunks
// instead of running to completion. The child ignores cancellation, so
// only the operator's own drain loop can stop.
func TestSerialDrainLoopsObserveCancellation(t *testing.T) {
	done := make(chan struct{})
	close(done)
	ctx := &Context{Parallelism: 1, Done: done}
	child := func() Operator {
		return &tableOp{data: bigMaterialTable(t, 10_000)}
	}

	sortop := &sortOp{spec: &plan.Sort{Keys: []plan.SortKey{{Expr: &plan.ColRef{Idx: 0, Typ: vector.Int64}}}}, in: chunkFeed{child: child()}}
	if err := sortop.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sortop.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("sort: err = %v, want ErrCancelled", err)
	}

	agg := &aggOp{spec: &plan.Aggregate{}, in: chunkFeed{child: child()}}
	if err := agg.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("agg: err = %v, want ErrCancelled", err)
	}

	dist := &aggOp{spec: &plan.Aggregate{GroupBy: []plan.Expr{&plan.ColRef{Idx: 0, Typ: vector.Int64}}, GroupNames: []string{"x"}}, in: chunkFeed{child: child()}}
	if err := dist.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Next(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("distinct: err = %v, want ErrCancelled", err)
	}

	filt := &stageOp{stages: []pipeStage{{where: CompileWhere(&plan.Const{Val: vector.NewBool(false), Typ: vector.Bool})}}, child: child()}
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
	node := plan.Node(&plan.Filter{
		Pred: &plan.BinOp{
			Op:    sql.OpGe,
			Left:  &plan.ColRef{Idx: 0, Typ: vector.Int64, Name: "x"},
			Right: &plan.Const{Val: vector.NewInt64(int64(rows - 10)), Typ: vector.Int64},
			Typ:   vector.Bool,
		},
		Child: &plan.Scan{
			Table: tab,
			Preds: []plan.ScanPredicate{{Col: 0, Op: sql.OpGe, Val: vector.NewInt64(int64(rows - 10))}},
		},
	})
	for _, workers := range []int{1, 2, 8} {
		stats := &ScanStats{}
		out, err := Run(node, &Context{Parallelism: workers, Stats: stats})
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
