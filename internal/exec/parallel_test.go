package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// buildMultiSegTable creates a table spanning several storage segments
// so morsel dispatch has real fan-out.
func buildMultiSegTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	cat := catalog.New()
	tab, err := cat.CreateTable("t", catalog.Schema{
		{Name: "id", Type: vector.Int64},
		{Name: "g", Type: vector.Int32},
		{Name: "v", Type: vector.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, rows)
	gs := make([]int32, rows)
	vs := make([]float64, rows)
	for i := range ids {
		ids[i] = int64(i)
		gs[i] = int32(i % 7)
		vs[i] = float64(i%101) - 50
	}
	if err := tab.Data.AppendChunk(vector.NewChunk(
		vector.FromInt64s(ids), vector.FromInt32s(gs), vector.FromFloat64s(vs))); err != nil {
		t.Fatal(err)
	}
	return tab
}

func gtPred(col int, typ vector.Type, threshold int64) plan.Expr {
	return &plan.BinOp{Op: sql.OpGt, Left: colRef(col, typ),
		Right: &plan.Const{Val: vector.NewInt64(threshold), Typ: vector.Int64}, Typ: vector.Bool}
}

// TestBuildSelectsParallelOperators asserts eligible plan shapes get
// the morsel-parallel operators rather than silently staying serial.
func TestBuildSelectsParallelOperators(t *testing.T) {
	tab := buildMultiSegTable(t, 100)
	// overScan reports whether p reads the table's morsels at width 4.
	overScan := func(p *pipeSpec) bool {
		_, ok := p.src.(*scanSource)
		return ok && p.workers == 4
	}
	filter := &plan.Filter{Pred: gtPred(0, vector.Int64, 10), Child: &plan.Scan{Table: tab}}

	op, err := buildNode(filter, 4, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*parallelPipeOp); !ok {
		t.Fatalf("filter over scan built %T, want *parallelPipeOp", op)
	}

	agg := &plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(1, vector.Int32)},
		GroupNames: []string{"g"},
		Aggs:       []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}},
		Child:      filter,
	}
	op, err = buildNode(agg, 4, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := op.(*aggOp); !ok || !overScan(a.in) {
		t.Fatalf("aggregate built %T, want *aggOp over a pipeline", op)
	}

	// DISTINCT aggregates parallelize too: accumulation is deferred to
	// finalization, so per-worker distinct key-sets union losslessly.
	distinctAgg := &plan.Aggregate{
		Aggs:  []plan.AggSpec{{Kind: plan.AggCount, Arg: colRef(1, vector.Int32), Distinct: true, Name: "n", Typ: vector.Int64}},
		Child: &plan.Scan{Table: tab},
	}
	op, err = buildNode(distinctAgg, 4, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := op.(*aggOp); !ok || !overScan(a.in) {
		t.Fatalf("distinct aggregate built %T, want *aggOp over a pipeline", op)
	}

	sortNode := &plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(2, vector.Float64)}},
		Child: filter,
	}
	op, err = buildNode(sortNode, 4, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := op.(*sortOp); !ok || !overScan(s.in) {
		t.Fatalf("sort over pipeline built %T, want *sortOp over a pipeline", op)
	}

	distinct := &plan.Distinct{Child: filter}
	op, err = buildNode(distinct, 4, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := op.(*aggOp); !ok || !overScan(a.in) {
		t.Fatalf("DISTINCT built %T, want *aggOp over a pipeline (group-by rewrite)", op)
	}

	join := &plan.HashJoin{
		Kind:      sql.InnerJoin,
		Left:      &plan.Scan{Table: tab},
		Right:     &plan.Scan{Table: tab},
		LeftKeys:  []plan.Expr{colRef(1, vector.Int32)},
		RightKeys: []plan.Expr{colRef(1, vector.Int32)},
	}
	op, err = buildNode(join, 4, &Profile{})
	if err != nil {
		t.Fatal(err)
	}
	jop, ok := op.(*hashJoinOp)
	if !ok || !overScan(jop.probe) {
		t.Fatalf("join built %T, want parallel-probe *hashJoinOp", op)
	}
}

// TestParallelPipePreservesOrder runs the same filtered scan serially
// and at several worker counts; output must be byte-identical.
func TestParallelPipePreservesOrder(t *testing.T) {
	tab := buildMultiSegTable(t, 3*vector.DefaultChunkSize+17)
	node := plan.Node(&plan.Filter{Pred: gtPred(2, vector.Float64, 0), Child: &plan.Scan{Table: tab}})

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
			t.Fatalf("workers=%d: %d rows, serial %d", workers, par.NumRows(), serial.NumRows())
		}
		for i := 0; i < serial.NumRows(); i++ {
			if par.Cols[0].Int64s()[i] != serial.Cols[0].Int64s()[i] {
				t.Fatalf("workers=%d: row %d id %d, serial %d",
					workers, i, par.Cols[0].Int64s()[i], serial.Cols[0].Int64s()[i])
			}
		}
	}
}

// TestParallelAggMatchesSerial checks partitioned aggregation merges
// back to the serial result, including first-appearance output order.
func TestParallelAggMatchesSerial(t *testing.T) {
	tab := buildMultiSegTable(t, 4*vector.DefaultChunkSize)
	node := plan.Node(&plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(1, vector.Int32)},
		GroupNames: []string{"g"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(2, vector.Float64), Name: "s", Typ: vector.Float64},
			{Kind: plan.AggMin, Arg: colRef(0, vector.Int64), Name: "mn", Typ: vector.Int64},
			{Kind: plan.AggMax, Arg: colRef(0, vector.Int64), Name: "mx", Typ: vector.Int64},
		},
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
			t.Fatalf("workers=%d: %d groups, serial %d", workers, par.NumRows(), serial.NumRows())
		}
		for i := 0; i < serial.NumRows(); i++ {
			for c := 0; c < serial.NumCols(); c++ {
				if par.Cols[c].Get(i).String() != serial.Cols[c].Get(i).String() {
					t.Fatalf("workers=%d row %d col %d: %v, serial %v",
						workers, i, c, par.Cols[c].Get(i), serial.Cols[c].Get(i))
				}
			}
		}
	}
}

// TestParallelGlobalAggEmptyInput: a global aggregate over an empty
// relation must still produce its single row under parallel execution.
func TestParallelGlobalAggEmptyInput(t *testing.T) {
	tab := buildMultiSegTable(t, 100)
	node := plan.Node(&plan.Aggregate{
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Name: "s", Typ: vector.Int64},
		},
		Child: &plan.Filter{Pred: gtPred(0, vector.Int64, 1_000_000), Child: &plan.Scan{Table: tab}},
	})
	out, err := Run(node, &Context{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", out.NumRows())
	}
	if out.Cols[0].Get(0).Int64() != 0 || !out.Cols[1].IsNull(0) {
		t.Fatalf("empty global agg = (%v, %v), want (0, NULL)", out.Cols[0].Get(0), out.Cols[1].Get(0))
	}
}

// errExpr is a plan expression whose evaluation always fails, for
// exercising worker error propagation.
type errExpr struct{}

func (errExpr) Type() vector.Type { return vector.Bool }

func TestParallelErrorPropagation(t *testing.T) {
	tab := buildMultiSegTable(t, 4*vector.DefaultChunkSize)
	node := plan.Node(&plan.Filter{Pred: errExpr{}, Child: &plan.Scan{Table: tab}})
	if _, err := Run(node, &Context{Parallelism: 4}); err == nil {
		t.Fatal("worker error must propagate to the caller")
	}
}

// TestOpenErrorReleasesWorkers: a query whose Open fails after a
// parallel subtree already started workers (join build-side error)
// must not leak the worker goroutines.
func TestOpenErrorReleasesWorkers(t *testing.T) {
	tab := buildMultiSegTable(t, 4*vector.DefaultChunkSize)
	join := &plan.HashJoin{
		Kind:      sql.InnerJoin,
		Left:      &plan.Scan{Table: tab},
		Right:     &plan.Filter{Pred: errExpr{}, Child: &plan.Scan{Table: tab}},
		LeftKeys:  []plan.Expr{colRef(0, vector.Int64)},
		RightKeys: []plan.Expr{colRef(0, vector.Int64)},
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := Run(join, &Context{Parallelism: 4}); err == nil {
			t.Fatal("build-side error must fail the query")
		}
	}
	// Close is synchronous, but exiting goroutines may still be
	// counted for an instant; retry briefly.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 20 failed queries",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// orderedOver starts a driver over morsels 0..n-1, each the chunk fn
// makes of it, re-emitted as they are.
func orderedOver(n, workers int, fn func(i int) *vector.Chunk) *orderedDriver {
	var cur morselCursor
	cur.reset(n)
	return startOrdered(nil, workers, func(int) (int, *vector.Chunk, bool, error) {
		i, ok := cur.take()
		if !ok {
			return i, nil, false, nil
		}
		return i, fn(i), true, nil
	}, func(ch *vector.Chunk, emit func(*vector.Chunk) error) error { return emit(ch) })
}

func TestOrderedDriverOrdering(t *testing.T) {
	const n = 64
	drv := orderedOver(n, 8, func(i int) *vector.Chunk {
		if i%3 == 0 {
			return nil // simulate fully filtered morsels
		}
		return vector.NewChunk(vector.FromInt64s([]int64{int64(i)}))
	})
	defer drv.abort()
	want := int64(-1)
	for {
		ch, err := drv.next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
		got := ch.Col(0).Int64s()[0]
		if got <= want {
			t.Fatalf("out of order: %d after %d", got, want)
		}
		want = got
	}
	// Morsel 63 is filtered (63%3 == 0); the last emitted must be 62.
	if want != 62 {
		t.Fatalf("last morsel %d, want 62", want)
	}
}

// TestOrderedDriverBoundedRunAhead: workers must not race through the
// whole input when the consumer stops early (LIMIT above a parallel
// pipeline). The token window bounds claims to runAhead + consumed.
func TestOrderedDriverBoundedRunAhead(t *testing.T) {
	const n, workers = 64, 2
	var calls atomic.Int64
	drv := orderedOver(n, workers, func(i int) *vector.Chunk {
		calls.Add(1)
		return vector.NewChunk(vector.FromInt64s([]int64{int64(i)}))
	})
	if ch, err := drv.next(); err != nil || ch == nil {
		t.Fatalf("first morsel: %v %v", ch, err)
	}
	drv.abort()
	// One consumed slot returns one token: at most 2*workers + 1
	// morsels may ever have been claimed.
	if got := calls.Load(); got > 2*workers+1 {
		t.Fatalf("%d morsels computed after consuming 1; run-ahead unbounded", got)
	}
}

func TestGroupIndexFastPaths(t *testing.T) {
	// Single int64 key: dense ids in first-appearance order, NULL gets
	// its own group (distinct from the key 0 its payload holds).
	col := vector.New(vector.Int64, 6)
	for _, v := range []vector.Value{vector.NewInt64(7), vector.NewInt64(3), vector.Null(),
		vector.NewInt64(7), vector.Null(), vector.NewInt64(0)} {
		col.AppendValue(v)
	}
	gi := newGroupIndex([]vector.Type{vector.Int64})
	ids := gi.groupIDs([]*vector.Vector{col}, col.Len(), nil)
	if want := []int32{0, 1, 2, 0, 2, 3}; !slices.Equal(ids, want) {
		t.Fatalf("int ids = %v, want %v", ids, want)
	}
	// A second, NULL-free chunk takes the integer fast path against the
	// same groups.
	ids = gi.groupIDs([]*vector.Vector{vector.FromInt64s([]int64{0, 9, 7})}, 3, ids)
	if want := []int32{3, 4, 0}; !slices.Equal(ids, want) {
		t.Fatalf("int ids, second chunk = %v, want %v", ids, want)
	}

	// Single string key.
	gs := newGroupIndex([]vector.Type{vector.String})
	ids = gs.groupIDs([]*vector.Vector{vector.FromStrings([]string{"a", "b", "a", ""})}, 4, ids)
	if want := []int32{0, 1, 0, 2}; !slices.Equal(ids, want) {
		t.Fatalf("string ids = %v, want %v", ids, want)
	}

	// Multi-column keys: equal numbers in differently typed columns
	// are different keys, and floats group by bit pattern.
	gm := newGroupIndex([]vector.Type{vector.Int32, vector.Float64})
	ids = gm.groupIDs([]*vector.Vector{
		vector.FromInt32s([]int32{1, 1, 1, 1}),
		vector.FromFloat64s([]float64{0, math.Copysign(0, -1), math.NaN(), math.NaN()}),
	}, 4, ids)
	if want := []int32{0, 1, 2, 2}; !slices.Equal(ids, want) {
		t.Fatalf("multi-column ids = %v, want %v", ids, want)
	}

	// Growth keeps every earlier group reachable.
	big := newGroupIndex([]vector.Type{vector.Int64})
	xs := make([]int64, 10_000)
	for i := range xs {
		xs[i] = int64(i) * 16 // low nibble constant: hashes must still spread
	}
	ids = big.groupIDs([]*vector.Vector{vector.FromInt64s(xs)}, len(xs), ids)
	again := big.groupIDs([]*vector.Vector{vector.FromInt64s(xs)}, len(xs), nil)
	if !slices.Equal(ids, again) || int(ids[len(ids)-1]) != len(xs)-1 {
		t.Fatal("ids changed after the table grew")
	}
	var perPart [spillFanout]int
	for _, h := range big.hashes[:big.n] {
		perPart[partitionOf(h, 4, 0)]++
	}
	for p, n := range perPart {
		if n < len(xs)/spillFanout/2 || n > len(xs)/spillFanout*2 {
			t.Fatalf("partition %d got %d of %d keys: %v", p, n, len(xs), perPart)
		}
	}
}

// TestGroupIndexProbeLengths: a key's home slot is the top bits of its
// hash, which a multiplicative hash fills from every input bit. (The
// low bits of the high word see nothing of a key's bits 48 and up —
// where doubles that are multiples of a tenth, and integers shifted far
// left, differ: 28 and 49 probes per key on the shapes below that a
// DISTINCT over a DOUBLE argument makes group keys.) The tables that
// are filled with a subset of the keys chosen by hash must see the same
// spread: a hash partition's (one cut from the hash's own top bits
// costs thousands of probes per key), and a spill partition's two
// levels down.
func TestGroupIndexProbeLengths(t *testing.T) {
	const n = 200_000
	ints := func(f func(i int) int64) *vector.Vector {
		x := make([]int64, n)
		for i := range x {
			x[i] = f(i)
		}
		return vector.FromInt64s(x)
	}
	floats := func(f func(i int) float64) *vector.Vector {
		x := make([]float64, n)
		for i := range x {
			x[i] = f(i)
		}
		return vector.FromFloat64s(x)
	}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("key-%d", i)
	}
	subsets := []struct {
		name string
		keep func(h, first uint64) bool
	}{
		{"all keys", func(uint64, uint64) bool { return true }},
		{"one partition", func(h, first uint64) bool { return partitionOf(h, 4, 0) == partitionOf(first, 4, 0) }},
		{"one level-1 spill partition", func(h, first uint64) bool {
			return partitionOf(h, 4, 0) == partitionOf(first, 4, 0) && partitionOf(h, 4, 1) == partitionOf(first, 4, 1)
		}},
	}
	for name, keys := range map[string][]*vector.Vector{
		"sequential":       {ints(func(i int) int64 { return int64(i) })},
		"scattered":        {ints(func(i int) int64 { return int64(i) * 7919 })},
		"high bits only":   {ints(func(i int) int64 { return int64(i) << 40 })},
		"whole doubles":    {floats(func(i int) float64 { return float64(i) })},
		"tenths":           {floats(func(i int) float64 { return float64(i) / 10 })},
		"group and tenths": {ints(func(i int) int64 { return int64(i / 10_000) }), floats(func(i int) float64 { return float64(i%1000) / 10 })},
		"two integers":     {ints(func(i int) int64 { return int64(i % 1000) }), ints(func(i int) int64 { return int64(i / 1000) })},
		"strings":          {vector.FromStrings(strs)},
	} {
		types := make([]vector.Type, len(keys))
		for i, k := range keys {
			types[i] = k.Type()
		}
		hashes := hashKeyRows(keys, n, nil)
		for _, sub := range subsets {
			var sel []int
			for r, h := range hashes {
				if sub.keep(h, hashes[0]) {
					sel = append(sel, r)
				}
			}
			gi := newGroupIndex(types)
			gi.groupIDs(gatherVecs(keys, sel), len(sel), nil)
			// Replay the inserts into an empty table of the final size.
			taken, mask, probes := make([]bool, len(gi.slots)), uint64(len(gi.slots)-1), 0
			for _, h := range gi.hashes[:gi.n] {
				i := gi.home(h)
				for probes++; taken[i]; probes++ {
					i = (i + 1) & mask
				}
				taken[i] = true
			}
			if avg := float64(probes) / float64(gi.n); avg > 2 {
				t.Errorf("%s, %s: %.1f probes per key over %d keys in %d slots", name, sub.name, avg, gi.n, len(gi.slots))
			}
		}
	}
}

// TestPartitionOfSpreadsHighBitKeys: keys that differ only above bit 40
// — whole-number doubles, integers shifted far left — hash to values
// whose low bits are constant, and used to land in one partition for the
// first one or two levels of the aggregation's partitions and at level 0
// of the join's. Every level is cut from a remix of the hash, at either
// level-0 width: 64k such keys fill at least 7/8 of the partitions at
// level 0, and one level-0 partition's keys at least 7/8 of the sixteen
// at level 1, none holding more than twice its share.
func TestPartitionOfSpreadsHighBitKeys(t *testing.T) {
	const n = 64 << 10
	doubles, shifted := make([]float64, n), make([]int64, n)
	for i := range doubles {
		doubles[i], shifted[i] = float64(i), int64(i)<<44
	}
	for name, key := range map[string]*vector.Vector{"whole doubles": vector.FromFloat64s(doubles), "i<<44": vector.FromInt64s(shifted)} {
		hashes := hashKeyRows([]*vector.Vector{key}, n, nil)
		for _, bits := range []uint{4, 8} {
			for level := 0; level < 2; level++ {
				counts, total := make([]int, spillFanout), 0
				if level == 0 {
					counts = make([]int, 1<<bits)
				}
				for _, h := range hashes {
					if level == 0 || partitionOf(h, bits, 0) == partitionOf(hashes[0], bits, 0) {
						counts[partitionOf(h, bits, level)]++
						total++
					}
				}
				filled, largest := 0, 0
				for _, c := range counts {
					if c > 0 {
						filled++
					}
					largest = max(largest, c)
				}
				if filled*8 < len(counts)*7 || largest*len(counts) > 2*total {
					t.Errorf("%s, width %d, level %d: %d of %d partitions filled, largest %d of %d keys", name, bits, level, filled, len(counts), largest, total)
				}
			}
		}
	}
}

func TestConstantBulkFill(t *testing.T) {
	v := vector.Constant(vector.NewInt64(9), 1000, vector.Int64)
	if v.Len() != 1000 || v.Int64s()[999] != 9 || v.HasNulls() {
		t.Fatalf("constant vector wrong: len=%d", v.Len())
	}
	nv := vector.Constant(vector.Null(), 10, vector.Float64)
	if nv.Len() != 10 || !nv.IsNull(0) || !nv.IsNull(9) || nv.Type() != vector.Float64 {
		t.Fatal("NULL constant vector wrong")
	}
	if len(nv.Float64s()) != 10 {
		t.Fatalf("NULL constant payload length %d, want 10", len(nv.Float64s()))
	}
}
