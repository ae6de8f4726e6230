package exec

import (
	"math"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// mkRun builds a sortedRun over a single pre-sorted int64 key column
// with explicit global positions.
func mkRun(t *testing.T, vals []int64, pos []int64) *sortedRun {
	t.Helper()
	col := vector.FromInt64s(vals)
	return &sortedRun{data: vector.NewChunk(col), keys: []*vector.Vector{col}, pos: pos}
}

func TestLoserTreeMergeOrder(t *testing.T) {
	keys := []plan.SortKey{{Expr: colRef(0, vector.Int64)}}
	runs := []*mergeRun{
		newMemRun(mkRun(t, []int64{1, 4, 7, 9}, []int64{0, 3, 6, 9})),
		newMemRun(mkRun(t, []int64{2, 4, 8}, []int64{1, 4, 7})),
		newMemRun(mkRun(t, []int64{0, 4, 10, 11, 12}, []int64{2, 5, 8, 10, 11})),
	}
	lt := newLoserTree(newSortCoder(keys), runs)
	var got []int64
	for {
		win, row, ok := lt.next()
		if !ok {
			break
		}
		got = append(got, win.data.Col(0).Int64s()[row])
	}
	if lt.err != nil {
		t.Fatal(lt.err)
	}
	want := []int64{0, 1, 2, 4, 4, 4, 7, 8, 9, 10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("merged %d rows, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
}

// TestLoserTreeTiebreakByPosition: equal keys must come out in global
// input-position order, reproducing serial stable-sort semantics.
func TestLoserTreeTiebreakByPosition(t *testing.T) {
	keys := []plan.SortKey{{Expr: colRef(0, vector.Int64)}}
	runs := []*mergeRun{
		newMemRun(mkRun(t, []int64{5, 5}, []int64{4, 6})),
		newMemRun(mkRun(t, []int64{5, 5}, []int64{1, 9})),
		newMemRun(mkRun(t, []int64{5}, []int64{3})),
	}
	lt := newLoserTree(newSortCoder(keys), runs)
	var gotPos []int64
	for {
		win, row, ok := lt.next()
		if !ok {
			break
		}
		gotPos = append(gotPos, win.pos[row])
	}
	want := []int64{1, 3, 4, 6, 9}
	for i := range want {
		if gotPos[i] != want[i] {
			t.Fatalf("tie order %v, want %v", gotPos, want)
		}
	}
}

func TestLoserTreeSingleAndEmpty(t *testing.T) {
	keys := []plan.SortKey{{Expr: colRef(0, vector.Int64)}}
	if _, _, ok := newLoserTree(newSortCoder(keys), nil).next(); ok {
		t.Fatal("empty tree must be exhausted")
	}
	lt := newLoserTree(newSortCoder(keys), []*mergeRun{newMemRun(mkRun(t, []int64{3, 8}, []int64{0, 1}))})
	var got []int64
	for {
		win, row, ok := lt.next()
		if !ok {
			break
		}
		got = append(got, win.data.Col(0).Int64s()[row])
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 8 {
		t.Fatalf("single-run merge = %v", got)
	}
}

// forceWideMerge lifts the hardware run cap so multi-run merges are
// exercised even on single-core CI machines.
func forceWideMerge(t *testing.T) {
	t.Helper()
	old := sortRunCap
	sortRunCap = 8
	t.Cleanup(func() { sortRunCap = old })
}

// buildFloatSortTable creates a multi-segment table whose float column
// cycles through NaN, NULL, ±Inf and duplicated finite values — the
// adversarial inputs for a total-order sort.
func buildFloatSortTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	cat := catalog.New()
	tab, err := cat.CreateTable("f", catalog.Schema{
		{Name: "id", Type: vector.Int64},
		{Name: "v", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, rows)
	vs := vector.New(vector.Float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		switch i % 11 {
		case 3:
			vs.AppendValue(vector.NewFloat64(math.NaN()))
		case 5:
			vs.AppendValue(vector.Null())
		case 7:
			vs.AppendValue(vector.NewFloat64(math.Inf(1)))
		case 9:
			vs.AppendValue(vector.NewFloat64(math.Inf(-1)))
		default:
			vs.AppendValue(vector.NewFloat64(float64(i % 13)))
		}
	}
	if err := tab.Data.AppendChunk(vector.NewChunk(vector.FromInt64s(ids), vs)); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestParallelSortMatchesSerial: the run-merge output must be
// byte-identical to the serial stable sort at every worker count,
// including over NaN/NULL/±Inf keys and duplicate values.
func TestParallelSortMatchesSerial(t *testing.T) {
	forceWideMerge(t)
	tab := buildFloatSortTable(t, 3*vector.DefaultChunkSize+41)
	for _, desc := range []bool{false, true} {
		node := plan.Node(&plan.Sort{
			Keys:  []plan.SortKey{{Expr: colRef(1, vector.Float64), Desc: desc}},
			Child: &plan.Scan{Table: tab},
		})
		serial, err := Run(node, &Context{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			par, err := Run(node, &Context{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.NumRows() != serial.NumRows() {
				t.Fatalf("desc=%v workers=%d: %d rows, serial %d", desc, workers, par.NumRows(), serial.NumRows())
			}
			for i := 0; i < serial.NumRows(); i++ {
				// Compare ids: with the position tiebreak the permutation
				// itself must match, not just the key ordering.
				if par.Cols[0].Int64s()[i] != serial.Cols[0].Int64s()[i] {
					t.Fatalf("desc=%v workers=%d row %d: id %d, serial %d",
						desc, workers, i, par.Cols[0].Int64s()[i], serial.Cols[0].Int64s()[i])
				}
			}
		}
	}
}

// TestParallelSortNaNLast: ascending ORDER BY must place NaN after
// +Inf and before NULL, deterministically.
func TestParallelSortNaNLast(t *testing.T) {
	forceWideMerge(t)
	tab := buildFloatSortTable(t, 2*vector.DefaultChunkSize)
	node := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(1, vector.Float64)}},
		Child: &plan.Scan{Table: tab},
	})
	out, err := Run(node, &Context{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	v := out.Cols[1]
	state := 0 // 0 finite/-inf, 1 +inf, 2 nan, 3 null
	for i := 0; i < v.Len(); i++ {
		var s int
		switch {
		case v.IsNull(i):
			s = 3
		case math.IsNaN(v.Float64s()[i]):
			s = 2
		case math.IsInf(v.Float64s()[i], 1):
			s = 1
		}
		if s < state {
			t.Fatalf("row %d: class %d after class %d (value %v)", i, s, state, v.Get(i))
		}
		state = s
	}
	if state != 3 {
		t.Fatal("expected NULLs at the tail")
	}
}

// TestParallelSortLimitStopsMerge: a Sort.Limit hint must truncate the
// merged output to the bound (the enclosing Limit re-applies it), and
// the prefix must equal the serial sort's prefix.
func TestParallelSortLimitStopsMerge(t *testing.T) {
	forceWideMerge(t)
	tab := buildMultiSegTable(t, 4*vector.DefaultChunkSize)
	full := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(2, vector.Float64)}, {Expr: colRef(0, vector.Int64), Desc: true}},
		Child: &plan.Scan{Table: tab},
	})
	serial, err := Run(full, &Context{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	limited := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(2, vector.Float64)}, {Expr: colRef(0, vector.Int64), Desc: true}},
		Child: &plan.Scan{Table: tab},
		Limit: 37,
	})
	out, err := Run(limited, &Context{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 37 {
		t.Fatalf("limited merge emitted %d rows, want 37", out.NumRows())
	}
	for i := 0; i < 37; i++ {
		if out.Cols[0].Int64s()[i] != serial.Cols[0].Int64s()[i] {
			t.Fatalf("row %d: id %d, serial %d", i, out.Cols[0].Int64s()[i], serial.Cols[0].Int64s()[i])
		}
	}
}

// TestParallelSortEmptyAndTiny: no input rows and fewer rows than
// workers must both behave.
func TestParallelSortEmptyAndTiny(t *testing.T) {
	forceWideMerge(t)
	tab := buildMultiSegTable(t, 5)
	empty := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(0, vector.Int64)}},
		Child: &plan.Filter{Pred: gtPred(0, vector.Int64, 1_000_000), Child: &plan.Scan{Table: tab}},
	})
	out, err := Run(empty, &Context{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("empty sort produced %d rows", out.NumRows())
	}
	tiny := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(0, vector.Int64), Desc: true}},
		Child: &plan.Scan{Table: tab},
	})
	out, err = Run(tiny, &Context{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 5 || out.Cols[0].Int64s()[0] != 4 {
		t.Fatalf("tiny sort wrong: %d rows", out.NumRows())
	}
}

// TestParallelDistinctAggMatchesSerial covers COUNT/SUM/AVG/MIN/MAX
// (DISTINCT ...) against serial execution, grouped and global.
func TestParallelDistinctAggMatchesSerial(t *testing.T) {
	tab := buildMultiSegTable(t, 4*vector.DefaultChunkSize)
	specs := []plan.AggSpec{
		{Kind: plan.AggCount, Arg: colRef(2, vector.Float64), Distinct: true, Name: "cd", Typ: vector.Int64},
		{Kind: plan.AggSum, Arg: colRef(2, vector.Float64), Distinct: true, Name: "sd", Typ: vector.Float64},
		{Kind: plan.AggAvg, Arg: colRef(0, vector.Int64), Distinct: true, Name: "ad", Typ: vector.Float64},
		{Kind: plan.AggMin, Arg: colRef(2, vector.Float64), Distinct: true, Name: "mnd", Typ: vector.Float64},
		{Kind: plan.AggMax, Arg: colRef(2, vector.Float64), Distinct: true, Name: "mxd", Typ: vector.Float64},
		{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, // mixed with plain aggs
	}
	for _, grouped := range []bool{false, true} {
		node := &plan.Aggregate{Aggs: specs, Child: &plan.Scan{Table: tab}}
		if grouped {
			node.GroupBy = []plan.Expr{colRef(1, vector.Int32)}
			node.GroupNames = []string{"g"}
		}
		serial, err := Run(node, &Context{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			par, err := Run(node, &Context{Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.NumRows() != serial.NumRows() {
				t.Fatalf("grouped=%v workers=%d: %d rows, serial %d", grouped, workers, par.NumRows(), serial.NumRows())
			}
			for i := 0; i < serial.NumRows(); i++ {
				for c := 0; c < serial.NumCols(); c++ {
					if par.Cols[c].Get(i).String() != serial.Cols[c].Get(i).String() {
						t.Fatalf("grouped=%v workers=%d row %d col %d: %v, serial %v",
							grouped, workers, i, c, par.Cols[c].Get(i), serial.Cols[c].Get(i))
					}
				}
			}
		}
	}
}

// TestDistinctMinBlobErrors: MIN/MAX over an unorderable type must
// fail identically with and without DISTINCT — the deferred
// distinct fold propagates comparison errors instead of silently
// returning whichever encoded key sorts first.
func TestDistinctMinBlobErrors(t *testing.T) {
	cat := catalog.New()
	tab, err := cat.CreateTable("b", catalog.Schema{{Name: "x", Type: vector.Blob}})
	if err != nil {
		t.Fatal(err)
	}
	col := vector.FromBlobs([][]byte{{1}, {2, 3}})
	if err := tab.Data.AppendChunk(vector.NewChunk(col)); err != nil {
		t.Fatal(err)
	}
	for _, distinct := range []bool{false, true} {
		node := plan.Node(&plan.Aggregate{
			Aggs:  []plan.AggSpec{{Kind: plan.AggMin, Arg: colRef(0, vector.Blob), Distinct: distinct, Name: "m", Typ: vector.Blob}},
			Child: &plan.Scan{Table: tab},
		})
		if _, err := Run(node, &Context{Parallelism: 1}); err == nil {
			t.Fatalf("distinct=%v: MIN over BLOB must error", distinct)
		}
	}
}

func TestDecodeValueKeyRoundTrip(t *testing.T) {
	vals := []vector.Value{
		vector.NewBool(true),
		vector.NewBool(false),
		vector.NewInt32(-42),
		vector.NewInt64(1 << 40),
		vector.NewFloat64(3.25),
		vector.NewFloat64(math.NaN()),
		vector.NewString("hello"),
		vector.NewString(""),
		vector.NewBlob([]byte{1, 2, 3}),
	}
	var key []byte
	for _, v := range vals {
		col := vector.New(v.Type(), 1)
		col.AppendValue(v)
		key = appendRowKey(key, col, 0)
	}
	rest := key
	for i, want := range vals {
		got, r, err := decodeValueKey(rest)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		rest = r
		if want.Type() == vector.Float64 && math.IsNaN(want.Float64()) {
			if !math.IsNaN(got.Float64()) {
				t.Fatalf("value %d: %v, want NaN", i, got)
			}
			continue
		}
		if got.String() != want.String() || got.Type() != want.Type() {
			t.Fatalf("value %d: %v (%s), want %v (%s)", i, got, got.Type(), want, want.Type())
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if _, _, err := decodeValueKey(nil); err == nil {
		t.Fatal("empty key must error")
	}
	if _, _, err := decodeValueKey([]byte{3, 1, 2}); err == nil {
		t.Fatal("truncated key must error")
	}
}
