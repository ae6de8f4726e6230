package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// The columns of the table the exactness cases aggregate. Group keys
// draw on the adversarial ones (NULL, NaN, both zeros, the empty
// string, an INTEGER and a BIGINT holding equal numbers); aggregate
// arguments that are summed are dyadic, and the column MIN/MAX reads
// has one NaN pattern and one zero, so every result is exact and
// independent of which worker saw which morsel — and, for a DISTINCT
// sum, of the order a group's values are added in.
const (
	exI32  = iota // INTEGER, 0..39, NULLs
	exI64         // BIGINT, equal to exI32 on most rows, NULLs
	exBool        // BOOLEAN, NULLs
	exStr         // VARCHAR incl. "" and NULL
	exF           // DOUBLE: NaN, +Inf, -0, +0, dyadic values, NULLs
	exHi          // BIGINT, nearly unique
	exNull        // DOUBLE, all NULL
	exFM          // DOUBLE for MIN/MAX: NaN, +Inf, dyadic values, NULLs
	exBlob        // BLOB, few values, NULLs
	exF2          // DOUBLE never summed: two NaN bit patterns, both zeros, NULLs
	exFS          // DOUBLE, 129 dyadic values, NULLs: exactly summable in any order
)

var exSchema = catalog.Schema{
	{Name: "i32", Type: vector.Int32}, {Name: "i64", Type: vector.Int64}, {Name: "b", Type: vector.Bool},
	{Name: "s", Type: vector.String}, {Name: "f", Type: vector.Float64}, {Name: "hi", Type: vector.Int64},
	{Name: "nul", Type: vector.Float64}, {Name: "fm", Type: vector.Float64}, {Name: "bl", Type: vector.Blob},
	{Name: "f2", Type: vector.Float64}, {Name: "fs", Type: vector.Float64},
}

func buildExactTable(t testing.TB, rows int, seed int64) *catalog.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*vector.Vector, len(exSchema))
	for i, c := range exSchema {
		cols[i] = vector.New(c.Type, rows)
	}
	strs := []string{"", "a", "b", "ab", "zebra", "a longer string value", "ü"}
	fs := []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), 0, 0.5, -2.25, 1024, 3}
	blobs := [][]byte{{}, {0}, {1, 2, 3}, []byte("blob")}
	f2s := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), math.Copysign(0, -1), 0, 0.5}
	null := func() bool { return rng.Intn(11) == 0 }
	for r := 0; r < rows; r++ {
		x := rng.Intn(40)
		add := func(c int, v vector.Value) {
			if null() {
				v = vector.Null()
			}
			cols[c].AppendValue(v)
		}
		add(exI32, vector.NewInt32(int32(x)))
		if rng.Intn(8) == 0 {
			x = rng.Intn(40) - 20
		}
		add(exI64, vector.NewInt64(int64(x)))
		add(exBool, vector.NewBool(rng.Intn(2) == 0))
		add(exStr, vector.NewString(strs[rng.Intn(len(strs))]))
		add(exF, vector.NewFloat64(fs[rng.Intn(len(fs))]))
		add(exHi, vector.NewInt64(int64(rng.Intn(rows*4))))
		cols[exNull].AppendValue(vector.Null())
		add(exFM, vector.NewFloat64(fs[[]int{0, 1, 4, 5, 6, 7}[rng.Intn(6)]]))
		add(exBlob, vector.NewBlob(blobs[rng.Intn(len(blobs))]))
		add(exF2, vector.NewFloat64(f2s[rng.Intn(len(f2s))]))
		add(exFS, vector.NewFloat64(float64(rng.Intn(129)-64)/4))
	}
	tab, err := catalog.New().CreateTable("x", exSchema)
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		if err := tab.Data.AppendChunk(vector.NewChunk(cols...)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func exCol(c int) plan.Expr { return colRef(c, exSchema[c].Type) }

func exAgg(kind plan.AggKind, col int, distinct bool) plan.AggSpec {
	if col < 0 {
		return plan.AggSpec{Kind: kind, Name: "n", Typ: vector.Int64} // COUNT(*)
	}
	s := exAggOver(kind, exCol(col), distinct)
	s.Name = fmt.Sprintf("a%d_%d_%v", kind, col, distinct)
	return s
}

// exAggOver is an aggregate over any argument expression.
func exAggOver(kind plan.AggKind, arg plan.Expr, distinct bool) plan.AggSpec {
	s := plan.AggSpec{Kind: kind, Arg: arg, Distinct: distinct, Name: fmt.Sprintf("a%d_%s_%v", kind, plan.ExprString(arg), distinct), Typ: vector.Int64}
	switch kind {
	case plan.AggAvg:
		s.Typ = vector.Float64
	case plan.AggSum:
		if arg.Type() == vector.Float64 {
			s.Typ = vector.Float64
		}
	case plan.AggMin, plan.AggMax:
		s.Typ = arg.Type()
	}
	return s
}

// exHalve is a scalar UDF not marked Parallel: an aggregation that
// calls it runs serially at any worker count.
var exHalve = &core.ScalarFunc{Name: "halve", Arity: 1, Eval: func(args []*vector.Vector) (*vector.Vector, error) {
	out := vector.New(vector.Int64, args[0].Len())
	for r := 0; r < args[0].Len(); r++ {
		if v := args[0].Get(r); v.IsNull() {
			out.AppendValue(v)
		} else {
			out.AppendValue(vector.NewInt64(v.Int64() / 2))
		}
	}
	return out, nil
}}

// exKeyShapes and exAggSets span the matrix: no key, each single key
// type, two- and three-column mixes; every aggregate kind × DISTINCT ×
// argument type, all-NULL arguments, and no aggregates at all (GROUP BY
// as DISTINCT); DISTINCT beside plain aggregates and COUNT(*), over two
// arguments and twice over one, over expressions and a serial-only UDF.
var exKeyShapes = [][]int{
	{}, {exI32}, {exI64}, {exBool}, {exStr}, {exF}, {exHi}, {exBlob},
	{exI32, exI64}, {exI64, exStr}, {exF2, exStr}, {exHi, exStr}, {exI32, exStr, exF}, {exBool, exI64, exBlob},
}

func exAggSets() [][]plan.AggSpec {
	all := func(col int, distinct bool, kinds ...plan.AggKind) []plan.AggSpec {
		var out []plan.AggSpec
		for _, k := range kinds {
			out = append(out, exAgg(k, col, distinct))
		}
		return out
	}
	five := []plan.AggKind{plan.AggCount, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax}
	cat := func(sets ...[]plan.AggSpec) []plan.AggSpec {
		var out []plan.AggSpec
		for _, s := range sets {
			out = append(out, s...)
		}
		return out
	}
	return [][]plan.AggSpec{
		cat([]plan.AggSpec{exAgg(plan.AggCount, -1, false)}, all(exI32, false, five...)),
		cat(all(exF, false, plan.AggCount, plan.AggSum, plan.AggAvg), all(exFM, false, plan.AggMin, plan.AggMax)),
		cat(all(exI64, false, five...), all(exStr, false, plan.AggCount, plan.AggMin, plan.AggMax), all(exBool, false, plan.AggMin, plan.AggMax)),
		cat(all(exI32, true, five...), all(exStr, true, plan.AggCount, plan.AggMin, plan.AggMax)),
		cat(all(exI64, true, plan.AggSum, plan.AggAvg), all(exF, true, plan.AggCount, plan.AggSum, plan.AggAvg), all(exFM, true, plan.AggMin, plan.AggMax), all(exBool, true, plan.AggCount, plan.AggMax)),
		cat(all(exNull, false, five...), all(exNull, true, five...)),
		cat([]plan.AggSpec{exAgg(plan.AggCount, -1, false)}, all(exBlob, false, plan.AggCount), all(exBlob, true, plan.AggCount), all(exHi, false, plan.AggMax), all(exHi, true, plan.AggCount)),
		nil,
		cat(all(exI64, true, five...), all(exBool, true, plan.AggCount, plan.AggMin, plan.AggMax)),
		cat(all(exF2, true, plan.AggCount), all(exFS, true, plan.AggCount, plan.AggSum, plan.AggAvg), all(exF2, false, plan.AggCount)),
		cat(all(exFS, true, plan.AggAvg), []plan.AggSpec{exAgg(plan.AggCount, -1, false)}, all(exI64, false, plan.AggSum), all(exHi, true, plan.AggSum, plan.AggCount), all(exStr, false, plan.AggMax), all(exFS, true, plan.AggSum)),
		{exAggOver(plan.AggCount, &plan.BinOp{Op: sql.OpAdd, Left: exCol(exI32), Right: exCol(exI64), Typ: vector.Int64}, true),
			exAggOver(plan.AggSum, &plan.BinOp{Op: sql.OpMul, Left: exCol(exFS), Right: &plan.Const{Val: vector.NewFloat64(2), Typ: vector.Float64}, Typ: vector.Float64}, true),
			exAggOver(plan.AggSum, &plan.Call{Fn: exHalve, Args: []plan.Expr{exCol(exHi)}, Typ: vector.Int64}, true),
			exAggOver(plan.AggCount, &plan.Call{Fn: exHalve, Args: []plan.Expr{exCol(exI32)}, Typ: vector.Int64}, true)},
	}
}

// referenceAggregate is the answer of the row-at-a-time table: the
// table's morsels dealt round-robin to `workers` reference tables,
// merged in worker order, emitted.
func referenceAggregate(t testing.TB, spec *plan.Aggregate, tab *catalog.Table, workers int) *vector.Chunk {
	t.Helper()
	tables := make([]*refAggTable, workers)
	for w := range tables {
		tables[w] = refNewAggTable(spec)
	}
	snap := tab.Data.Snapshot()
	for m := 0; m < snap.NumSegments(); m++ {
		ch, err := snap.Segment(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tables[m%workers].consume(ch, m); err != nil {
			t.Fatal(err)
		}
	}
	base := tables[0]
	byKey := base.mergeKeyMap()
	for _, o := range tables[1:] {
		if err := base.merge(o, byKey); err != nil {
			t.Fatal(err)
		}
	}
	base.ensureGlobalGroup()
	ch, err := base.emit()
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// assertSameBytes compares two results column by column: type, NULL
// mask and payload, doubles by bit pattern.
func assertSameBytes(t testing.TB, label string, got, want []*vector.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d columns, want %d", label, len(got), len(want))
	}
	for c := range want {
		g, w := got[c], want[c]
		if g.Type() != w.Type() || g.Len() != w.Len() {
			t.Fatalf("%s: column %d is %s[%d], want %s[%d]", label, c, g.Type(), g.Len(), w.Type(), w.Len())
		}
		for r := 0; r < w.Len(); r++ {
			same := g.IsNull(r) == w.IsNull(r)
			if same && !w.IsNull(r) {
				switch w.Type() {
				case vector.Bool:
					same = g.Bools()[r] == w.Bools()[r]
				case vector.Int32:
					same = g.Int32s()[r] == w.Int32s()[r]
				case vector.Int64:
					same = g.Int64s()[r] == w.Int64s()[r]
				case vector.Float64:
					same = math.Float64bits(g.Float64s()[r]) == math.Float64bits(w.Float64s()[r])
				case vector.String:
					same = g.Strings()[r] == w.Strings()[r]
				case vector.Blob:
					same = bytes.Equal(g.Blobs()[r], w.Blobs()[r])
				}
			}
			if !same {
				t.Fatalf("%s: row %d column %d: %v, want %v", label, r, c, g.Get(r), w.Get(r))
			}
		}
	}
}

// tableBytes is what the largest table the aggregation consumes its
// input into occupies once the whole input is in it: a budget one byte
// below it overflows on that table's last group.
func tableBytes(t testing.TB, spec *plan.Aggregate, tab *catalog.Table) int64 {
	t.Helper()
	var most int64
	snap := tab.Data.Snapshot()
	for _, st := range newAggregation(nil, spec, 1, &nodeStats{}).tables {
		at, in := newAggTable(st.spec, &nodeStats{}), newAggInputs(st.spec)
		for m := 0; m < snap.NumSegments(); m++ {
			ch, err := snap.Segment(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.eval(ch); err != nil {
				t.Fatal(err)
			}
			if err := at.consumeVecs(in.keys, in.hashes, in.args, morselPos(nil, m, ch.NumRows())); err != nil {
				t.Fatal(err)
			}
		}
		most = max(most, at.size())
	}
	return most
}

// TestColumnarAggMatchesReference checks the columnar table against
// the row-at-a-time one it replaced, byte for byte, over seeded cases:
// every case at workers 1/2/3/8 with no budget; every other case also
// under a tiny budget (everything evicted, partitions re-partition)
// and a budget one byte under the state (overflow on the last group)
// at a worker count that rotates with the case; every sixteenth case
// the full workers × budgets matrix.
func TestColumnarAggMatchesReference(t *testing.T) {
	cases := 0
	for ki, keys := range exKeyShapes {
		for ai, aggs := range exAggSets() {
			if len(keys) == 0 && aggs == nil {
				continue // neither keys nor aggregates: not a plan
			}
			for seed := int64(1); seed <= 2; seed++ {
				rows := 2*vector.DefaultChunkSize + 700*int(seed)
				if (ki+ai)%7 == 0 && seed == 2 {
					rows = 0 // empty input, with and without GROUP BY
				}
				cases++
				spec := &plan.Aggregate{Aggs: aggs}
				for _, k := range keys {
					spec.GroupBy = append(spec.GroupBy, exCol(k))
					spec.GroupNames = append(spec.GroupNames, exSchema[k].Name)
				}
				tab := buildExactTable(t, rows, seed*1000+int64(ki*10+ai))
				spec.Child = &plan.Scan{Table: tab}
				want := referenceAggregate(t, spec, tab, 1)
				if cases%4 == 0 { // the oracle's own merge
					assertSameBytes(t, "reference at 3 workers", referenceAggregate(t, spec, tab, 3).Cols(), want.Cols())
				}

				workerCounts := []int{1, 2, 3, 8}
				budgets := []int64{24 << 10, max(tableBytes(t, spec, tab)-1, 1)}
				for wi, workers := range workerCounts {
					label := fmt.Sprintf("keys=%v aggs=%d seed=%d rows=%d workers=%d", keys, ai, seed, rows, workers)
					got := runPlan(t, spec, &Context{Parallelism: workers})
					assertSameBytes(t, label, got.Cols, want.Cols())
					if cases%16 != 0 && (cases%2 != 0 || wi != cases/2%len(workerCounts)) {
						continue
					}
					for _, budget := range budgets {
						ctx, dir := spillCtx(t, workers, budget)
						got := runPlan(t, spec, ctx)
						assertSameBytes(t, fmt.Sprintf("%s budget=%d", label, budget), got.Cols, want.Cols())
						assertTempDirEmpty(t, dir)
					}
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestDistinctFrontMatchesReference: SELECT DISTINCT and UNION, each
// the aggregation over every column with no aggregates at every width —
// fed by the morsel pipeline over a scan, by the child operator under a
// UNION — against the reference table grouping on every column. The
// budgets (an eighth, half and all but one byte of the table's size)
// make the table overflow after its first chunk, in mid-input, on the
// last group of all, and never.
func TestDistinctFrontMatchesReference(t *testing.T) {
	projs := [][]int{{exI32}, {exHi}, {exStr, exF2}, {exBool, exI64, exBlob}, {exNull, exF}}
	for pi, proj := range projs {
		for seed := int64(1); seed <= 2; seed++ {
			rows := 5*vector.DefaultChunkSize + 300
			if pi == 0 && seed == 2 {
				rows = 0
			}
			left, right := buildExactTable(t, rows, seed*100+int64(pi)), buildExactTable(t, rows/2, seed*100+50+int64(pi))
			material := func(tab *catalog.Table) *plan.Material {
				scan := &plan.Scan{Table: tab, Projection: proj}
				return &plan.Material{Data: runPlan(t, scan, &Context{Parallelism: 1}), Schem: scan.Schema()}
			}
			for _, union := range []bool{false, true} {
				inputs := []*plan.Material{material(left)}
				node := plan.Node(&plan.Distinct{Child: &plan.Scan{Table: left, Projection: proj}})
				serial := plan.Node(&plan.Distinct{Child: inputs[0]})
				if union {
					inputs = append(inputs, material(right))
					node = &plan.Union{Left: inputs[0], Right: inputs[1]}
					serial = node
				}
				spec := groupByAll(inputs[0], plan.ExecHints{})
				ref, morsel := refNewAggTable(spec), 0
				at, in := newAggTable(spec, &nodeStats{}), newAggInputs(spec)
				for _, m := range inputs {
					for from := 0; from < m.Data.NumRows(); from += vector.DefaultChunkSize {
						ch := m.Data.Chunk().Slice(from, min(from+vector.DefaultChunkSize, m.Data.NumRows()))
						if err := ref.consume(ch, morsel); err != nil {
							t.Fatal(err)
						}
						if err := in.eval(ch); err != nil {
							t.Fatal(err)
						}
						if err := at.consumeVecs(in.keys, in.hashes, nil, morselPos(nil, morsel, ch.NumRows())); err != nil {
							t.Fatal(err)
						}
						morsel++
					}
				}
				want, err := ref.emit()
				if err != nil {
					t.Fatal(err)
				}
				size := at.size()
				for _, budget := range []int64{0, max(size/8, 1), size / 2, max(size-1, 1)} {
					for _, workers := range []int{1, 2, 3, 8} {
						label := fmt.Sprintf("proj=%v seed=%d union=%v budget=%d workers=%d", proj, seed, union, budget, workers)
						plans := []plan.Node{node}
						if workers == 1 {
							plans = append(plans, serial) // chunk-sized inputs: five hand-off points, not two
						}
						for _, n := range plans {
							ctx, dir := spillCtx(t, workers, budget)
							assertSameBytes(t, label, runPlan(t, n, ctx).Cols, want.Cols())
							assertTempDirEmpty(t, dir)
							if budget == max(size/8, 1) && rows > 0 && !ctx.prof.Spilled() {
								t.Fatalf("%s: nothing spilled", label)
							}
						}
					}
				}
			}
		}
	}
}

// TestAggZipRefusesMisalignedTables: the zip takes columns from mergers
// that must emit the same groups in the same order, whatever their
// batching. Groups at different positions, or one merger ending before
// another, are an internal error — never columns side by side that
// belong to different groups.
func TestAggZipRefusesMisalignedTables(t *testing.T) {
	zipOf := func(runs ...[]*sortedRun) *aggZip {
		z := &aggZip{cols: [][2]int{{0, 0}, {1, 0}}, cur: make([]*vector.Chunk, len(runs)), pos: make([][]int64, len(runs))}
		for _, rs := range runs {
			mrs := make([]*mergeRun, len(rs))
			for i, r := range rs {
				mrs[i] = newMemRun(r)
			}
			m := newRunMerger(nil, nil, mrs, -1, nil, 0)
			m.keepPos = true
			z.srcs = append(z.srcs, m)
		}
		return z
	}
	// One merger emits three groups in one batch; the other merges two
	// runs. Same groups, same order.
	z := zipOf([]*sortedRun{mkRun(t, []int64{10, 20, 30}, []int64{1, 5, 9})},
		[]*sortedRun{mkRun(t, []int64{11, 31}, []int64{1, 9}), mkRun(t, []int64{21}, []int64{5})})
	ch, err := z.next(nil)
	if err != nil || ch.NumRows() != 3 || ch.Col(0).Int64s()[1] != 20 || ch.Col(1).Int64s()[1] != 21 {
		t.Fatalf("aligned tables: %v, %v", ch, err)
	}
	if ch, err := z.next(nil); ch != nil || err != nil {
		t.Fatalf("after the last group: %v, %v", ch, err)
	}
	for name, z := range map[string]*aggZip{
		"another position": zipOf([]*sortedRun{mkRun(t, []int64{10, 20}, []int64{1, 5})}, []*sortedRun{mkRun(t, []int64{11, 21}, []int64{1, 6})}),
		"a group short":    zipOf([]*sortedRun{mkRun(t, []int64{10, 20}, []int64{1, 5})}, []*sortedRun{mkRun(t, []int64{11}, []int64{1})}),
		"nothing at all":   zipOf([]*sortedRun{mkRun(t, []int64{10}, []int64{1})}, nil),
	} {
		for err == nil {
			if ch, err = z.next(nil); ch == nil {
				break
			}
		}
		if err == nil {
			t.Fatalf("%s: zipped without complaint", name)
		}
		err = nil
	}
}

// TestDistinctAggBudgetTracksHeap: the dedup table of a DISTINCT
// aggregate is charged like any table — what it retains. 256k rows of
// 64k values in one group, measured as TestAggBudgetTracksHeap does.
func TestDistinctAggBudgetTracksHeap(t *testing.T) {
	const rows, values = 256 << 10, 64 << 10
	agg := newAggregation(nil, &plan.Aggregate{Aggs: []plan.AggSpec{
		{Kind: plan.AggCount, Arg: colRef(0, vector.Int64), Distinct: true, Name: "d", Typ: vector.Int64}}}, 1, &nodeStats{})
	if len(agg.tables) != 1 || agg.tables[0].fold == nil {
		t.Fatalf("count(DISTINCT) alone is %d tables", len(agg.tables))
	}
	xs := make([]int64, vector.DefaultChunkSize)
	build := func() *aggTable {
		cons := agg.newConsumers()
		for m := 0; m < rows/len(xs); m++ {
			for r := range xs {
				xs[r] = int64((m*len(xs)+r)%values) * 7919
			}
			if err := cons.consume(vector.NewChunk(vector.FromInt64s(xs)), m); err != nil {
				t.Fatal(err)
			}
		}
		return cons[0].table
	}
	build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	at := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if at.numGroups() != values {
		t.Fatalf("%d pairs, want %d", at.numGroups(), values)
	}
	if ratio := float64(at.size()) / float64(heap); ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("tracked %d bytes, heap grew %d: ratio %.2f outside [0.8, 1.5]", at.size(), heap, ratio)
	}
	t.Logf("tracked %d bytes, heap grew %d (%.0f bytes per pair)", at.size(), heap, float64(heap)/values)
}

// TestAggBudgetTracksHeap: what a table charges to the memory budget
// must be what it retains. 64k groups × 3 aggregates are built twice —
// the second time with the heap measured around it — and the tracked
// bytes must be within [0.8, 1.5]x of the heap's growth.
func TestAggBudgetTracksHeap(t *testing.T) {
	const groups = 64 << 10
	spec := &plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(0, vector.Int64)},
		GroupNames: []string{"k"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(1, vector.Float64), Name: "s", Typ: vector.Float64},
			{Kind: plan.AggMax, Arg: colRef(0, vector.Int64), Name: "m", Typ: vector.Int64},
		},
	}
	build := func() *aggTable {
		at, in := newAggTable(spec, &nodeStats{}), newAggInputs(spec)
		ks, vs := make([]int64, vector.DefaultChunkSize), make([]float64, vector.DefaultChunkSize)
		for m := 0; m < groups/len(ks); m++ {
			for r := range ks {
				ks[r], vs[r] = int64(m*len(ks)+r)*7919, float64(r)
			}
			if err := in.eval(vector.NewChunk(vector.FromInt64s(ks), vector.FromFloat64s(vs))); err != nil {
				t.Fatal(err)
			}
			if err := at.consumeVecs(in.keys, in.hashes, in.args, morselPos(nil, m, len(ks))); err != nil {
				t.Fatal(err)
			}
		}
		return at
	}
	build() // warm up: size classes, the test's own buffers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	at := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	tracked := at.size()
	if at.numGroups() != groups {
		t.Fatalf("%d groups, want %d", at.numGroups(), groups)
	}
	if ratio := float64(tracked) / float64(heap); ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("tracked %d bytes, heap grew %d: ratio %.2f outside [0.8, 1.5]", tracked, heap, ratio)
	}
	t.Logf("tracked %d bytes, heap grew %d (%.0f bytes per group)", tracked, heap, float64(heap)/groups)

	// The same groups four rows each through 2, 3 and 8 consumers, which
	// stop pre-aggregating after their sample windows: what the query is
	// charged — the partitions' tables and every consumer's blocks — is
	// what the heap holds, all of it is returned by the time the result
	// is drained and closed, and nothing went near the spill directory.
	for _, workers := range []int{2, 3, 8} {
		ctx, dir := spillCtx(t, workers, 1<<30)
		ctx.mem, ctx.spillMgr = newMemTracker(ctx.MemoryBudget), spill.NewManager(dir, ctx.prof)
		var agg *aggregation
		var threads []aggConsumers
		ks, vs := make([]int64, vector.DefaultChunkSize), make([]float64, vector.DefaultChunkSize)
		routed := func() {
			agg, threads = newAggregation(ctx, spec, workers, &nodeStats{}), make([]aggConsumers, workers)
			for m := 0; m < 4*groups/len(ks); m++ {
				for r := range ks {
					ks[r], vs[r] = int64((m*len(ks)+r)*2654435761%groups)*7919, float64(r)
				}
				if threads[m%workers] == nil {
					threads[m%workers] = agg.newConsumers()
				}
				if err := threads[m%workers].consume(vector.NewChunk(vector.FromInt64s(ks), vector.FromFloat64s(vs)), m); err != nil {
					t.Fatal(err)
				}
			}
		}
		release := func() {
			em, err := agg.finish(threads)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ch, err := em.next(ctx); ch != nil || err != nil; ch, err = em.next(ctx) {
				if err != nil {
					t.Fatal(err)
				}
				n += ch.NumRows()
			}
			em.close()
			if used := ctx.mem.used.Load(); n != groups || used != 0 {
				t.Fatalf("workers=%d: %d groups out, %d bytes still charged after close", workers, n, used)
			}
		}
		routed()
		release()
		runtime.GC()
		runtime.ReadMemStats(&before)
		routed()
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap, tracked := int64(after.HeapAlloc)-int64(before.HeapAlloc), ctx.mem.used.Load()
		for w, cs := range threads {
			if cs[0].router == nil {
				t.Fatalf("workers=%d: consumer %d still pre-aggregates", workers, w)
			}
		}
		if ratio := float64(tracked) / float64(heap); ratio < 0.8 || ratio > 1.5 {
			t.Errorf("workers=%d: tracked %d bytes, heap grew %d: ratio %.2f outside [0.8, 1.5]", workers, tracked, heap, ratio)
		}
		t.Logf("workers=%d: tracked %d bytes, heap grew %d", workers, tracked, heap)
		release()
		if ctx.spillMgr.Dir() != "" || ctx.prof.Spilled() || ctx.prof.ResidentPartitions() != 0 {
			t.Errorf("workers=%d: spill directory %q, %d resident partitions reported", workers, ctx.spillMgr.Dir(), ctx.prof.ResidentPartitions())
		}
		assertTempDirEmpty(t, dir)
	}
}

// fuzzLayouts are the tables FuzzReadPartial reads partial rows for:
// what three aggregations consume their input into, between them every
// state column type and the key-only rows of two dedup tables.
func fuzzLayouts() []*aggLayout {
	specs := []*plan.Aggregate{
		{GroupBy: []plan.Expr{exCol(exI64)}, GroupNames: []string{"k"}, Aggs: []plan.AggSpec{
			exAgg(plan.AggCount, -1, false), exAgg(plan.AggSum, exF, false), exAgg(plan.AggMax, exHi, false)}},
		{GroupBy: []plan.Expr{exCol(exStr), exCol(exI32)}, GroupNames: []string{"s", "i"}, Aggs: []plan.AggSpec{
			exAgg(plan.AggMin, exStr, false), exAgg(plan.AggCount, exHi, true), exAgg(plan.AggAvg, exI32, false), exAgg(plan.AggMin, exBool, false)}},
		{Aggs: []plan.AggSpec{exAgg(plan.AggSum, exF, true), exAgg(plan.AggMax, exFM, false)}},
	}
	var layouts []*aggLayout
	for _, s := range specs {
		for _, st := range newAggregation(nil, s, 1, &nodeStats{}).tables {
			layouts = append(layouts, newAggLayout(st.spec, &nodeStats{}))
		}
	}
	return layouts
}

// TestReadPartialRejectsForeignChunks: a dedup table's partial rows are
// its key columns and firstSeen, nothing per kind. Columns of another
// layout, a missing column and a NULL position are corrupt spill, not
// a panic further down.
func TestReadPartialRejectsForeignChunks(t *testing.T) {
	layouts := fuzzLayouts()
	dedup, plain := layouts[2], layouts[1] // (s, i32, hi) pairs; the same groups' plain aggregates
	keys := []*vector.Vector{vector.FromStrings([]string{"a", ""}), vector.FromInt32s([]int32{1, 2}), vector.FromInt64s([]int64{7, 7})}
	good := append(slices.Clone(keys), vector.FromInt64s([]int64{5, 9}))
	p, err := dedup.readPartial(good)
	if err != nil || len(p.keys) != 3 || len(p.state) != 0 || p.firstSeen[1] != 9 {
		t.Fatalf("good chunk: %+v, %v", p, err)
	}
	nullPos := vector.FromInt64s([]int64{5, 9})
	nullPos.SetNull(1)
	for name, cols := range map[string][]*vector.Vector{
		"truncated":     good[:3],
		"other layout":  append(slices.Clone(good), vector.FromBools([]bool{true, false}), vector.FromStrings([]string{"x", "y"})),
		"mistyped key":  {keys[0], keys[2], keys[2], good[3]},
		"ragged":        {keys[0], keys[1], keys[2], vector.FromInt64s([]int64{5})},
		"NULL position": {keys[0], keys[1], keys[2], nullPos},
	} {
		if _, err := dedup.readPartial(cols); !errors.Is(err, errCorruptSpill) {
			t.Fatalf("%s: err = %v, want errCorruptSpill", name, err)
		}
	}
	if _, err := plain.readPartial(good); !errors.Is(err, errCorruptSpill) {
		t.Fatalf("pairs read as aggregate state: err = %v, want errCorruptSpill", err)
	}
}

// encodeSpillChunk frames columns the way spill.File writes a chunk.
func encodeSpillChunk(t testing.TB, cols []*vector.Vector) []byte {
	t.Helper()
	b, err := storage.AppendChunk(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeSpillChunk parses a chunk frame, nil when the frame itself is
// malformed or is not one spill.File reads back (the target here is
// what exec does with columns that decoded), or holds more than 4 096
// rows, which keeps each fuzz input's work small.
func decodeSpillChunk(b []byte) []*vector.Vector {
	cols, _, err := storage.DecodeChunk(b)
	if err != nil || len(cols) == 0 || cols[0].Len() == 0 || cols[0].Len() > 4096 {
		return nil
	}
	return cols
}

// FuzzReadPartial feeds the reload of an evicted aggregation partition
// spill chunks it did not just write. Whatever decodes into columns must
// either be rejected with errCorruptSpill or merge and emit without a
// panic.
func FuzzReadPartial(f *testing.F) {
	layouts := fuzzLayouts()
	for li, l := range layouts {
		tab := buildExactTable(f, 300, int64(li))
		at, in := newAggTable(l.spec, &nodeStats{}), newAggInputs(l.spec)
		ch, err := tab.Data.Snapshot().Segment(0, nil)
		if err != nil {
			f.Fatal(err)
		}
		if err := in.eval(ch); err != nil {
			f.Fatal(err)
		}
		if err := at.consumeVecs(in.keys, in.hashes, in.args, morselPos(nil, 0, ch.NumRows())); err != nil {
			f.Fatal(err)
		}
		good := encodeSpillChunk(f, at.partial(identitySel(at.numGroups())).chunk())
		f.Add(byte(li), good)
		f.Add(byte(li+1), good)             // another aggregation's layout
		f.Add(byte(li), good[:len(good)/2]) // truncated
		flipped := bytes.Clone(good)
		flipped[len(flipped)-3] ^= 0xFF // the last state column, or a dedup table's firstSeen
		f.Add(byte(li), flipped)
	}
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		cols := decodeSpillChunk(data)
		if cols == nil {
			return
		}
		l := layouts[int(which)%len(layouts)]
		// An evicted partition holds the chunk twice — the second copy's
		// groups all exist: the merge loops run, not just inserts — and
		// is re-aggregated as any is: the engine's reload reads it back.
		ctx := &Context{Parallelism: 1, mem: newMemTracker(1 << 30), spillMgr: spill.NewManager(t.TempDir(), nil)}
		defer ctx.spillMgr.Close()
		sp := newAggSpiller(l, newGrace(ctx, &l.rows, 4, 0))
		for range 2 {
			sp.g.parts[0].streams[partialRows].cols = cols
			if err := sp.g.flushStreams(0); err != nil {
				t.Fatal(err)
			}
		}
		_, err := processAggPartition(sp, 0, &aggOut{ctx: ctx, st: l.rows.st})
		sp.abandon()
		if _, rerr := l.readPartial(cols); (err == nil) != (rerr == nil) || err != nil && !errors.Is(err, errCorruptSpill) {
			t.Fatalf("reloaded: %v; read directly: %v", err, rerr)
		}
	})
}
