package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// The columns of the table the exactness cases aggregate. Group keys
// draw on the adversarial ones (NULL, NaN, both zeros, the empty
// string, an INTEGER and a BIGINT holding equal numbers); aggregate
// arguments that are summed are dyadic, and the column MIN/MAX reads
// has one NaN pattern and one zero, so every result is exact and
// independent of which worker saw which morsel.
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
)

var exSchema = catalog.Schema{
	{Name: "i32", Type: vector.Int32}, {Name: "i64", Type: vector.Int64}, {Name: "b", Type: vector.Bool},
	{Name: "s", Type: vector.String}, {Name: "f", Type: vector.Float64}, {Name: "hi", Type: vector.Int64},
	{Name: "nul", Type: vector.Float64}, {Name: "fm", Type: vector.Float64}, {Name: "bl", Type: vector.Blob},
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
	s := plan.AggSpec{Kind: kind, Distinct: distinct, Name: fmt.Sprintf("a%d_%d_%v", kind, col, distinct), Typ: vector.Int64}
	if col < 0 {
		return s // COUNT(*)
	}
	s.Arg = exCol(col)
	switch kind {
	case plan.AggAvg:
		s.Typ = vector.Float64
	case plan.AggSum:
		if exSchema[col].Type == vector.Float64 {
			s.Typ = vector.Float64
		}
	case plan.AggMin, plan.AggMax:
		s.Typ = exSchema[col].Type
	}
	return s
}

// exKeyShapes and exAggSets span the issue's matrix: no key, each
// single key type, two- and three-column mixes; every aggregate kind ×
// DISTINCT × argument type, all-NULL arguments, and no aggregates at
// all (GROUP BY as DISTINCT).
var exKeyShapes = [][]int{
	{}, {exI32}, {exI64}, {exBool}, {exStr}, {exF}, {exHi}, {exBlob},
	{exI32, exI64}, {exI64, exStr}, {exF, exStr}, {exHi, exStr}, {exI32, exStr, exF}, {exBool, exI64, exBlob},
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

// tableBytes is what the aggregation's state occupies once the whole
// input is in one table: a budget one byte below it overflows on the
// last group.
func tableBytes(t testing.TB, spec *plan.Aggregate, tab *catalog.Table) int64 {
	t.Helper()
	at, in := newAggTable(spec), newAggInputs(spec)
	snap := tab.Data.Snapshot()
	for m := 0; m < snap.NumSegments(); m++ {
		ch, err := snap.Segment(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.eval(ch, m); err != nil {
			t.Fatal(err)
		}
		if err := at.consumeVecs(in.keys, in.hashes, in.args, in.pos); err != nil {
			t.Fatal(err)
		}
	}
	return at.size()
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
		at, in := newAggTable(spec), newAggInputs(spec)
		ks, vs := make([]int64, vector.DefaultChunkSize), make([]float64, vector.DefaultChunkSize)
		for m := 0; m < groups/len(ks); m++ {
			for r := range ks {
				ks[r], vs[r] = int64(m*len(ks)+r)*7919, float64(r)
			}
			if err := in.eval(vector.NewChunk(vector.FromInt64s(ks), vector.FromFloat64s(vs)), m); err != nil {
				t.Fatal(err)
			}
			if err := at.consumeVecs(in.keys, in.hashes, in.args, in.pos); err != nil {
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
}

// fuzzLayouts are the aggregations FuzzReadPartial reads partial rows
// for: between them every state column type and the DISTINCT blob.
func fuzzLayouts() []*aggLayout {
	specs := []*plan.Aggregate{
		{GroupBy: []plan.Expr{exCol(exI64)}, GroupNames: []string{"k"}, Aggs: []plan.AggSpec{
			exAgg(plan.AggCount, -1, false), exAgg(plan.AggSum, exF, false), exAgg(plan.AggMax, exHi, false)}},
		{GroupBy: []plan.Expr{exCol(exStr), exCol(exI32)}, GroupNames: []string{"s", "i"}, Aggs: []plan.AggSpec{
			exAgg(plan.AggMin, exStr, false), exAgg(plan.AggCount, exHi, true), exAgg(plan.AggAvg, exI32, false), exAgg(plan.AggMin, exBool, false)}},
		{Aggs: []plan.AggSpec{exAgg(plan.AggSum, exF, true), exAgg(plan.AggMax, exFM, false)}},
	}
	layouts := make([]*aggLayout, len(specs))
	for i, s := range specs {
		layouts[i] = newAggLayout(s)
	}
	return layouts
}

// encodeSpillChunk frames columns the way spill.File writes a chunk.
func encodeSpillChunk(t testing.TB, cols []*vector.Vector) []byte {
	t.Helper()
	buf := binary.LittleEndian.AppendUint32(nil, uint32(cols[0].Len()))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cols)))
	for _, c := range cols {
		payload, err := storage.EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, byte(c.Type()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

// decodeSpillChunk parses a chunk frame, nil when the frame itself is
// malformed (the spill package's reader rejects those; the target here
// is what exec does with columns that decoded).
func decodeSpillChunk(b []byte) []*vector.Vector {
	if len(b) < 6 {
		return nil
	}
	n, ncols := int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint16(b[4:]))
	if n <= 0 || n > 4096 || ncols <= 0 {
		return nil
	}
	b = b[6:]
	cols := make([]*vector.Vector, ncols)
	for i := range cols {
		if len(b) < 5 {
			return nil
		}
		typ, plen := vector.Type(b[0]), int(binary.LittleEndian.Uint32(b[1:]))
		if b = b[5:]; len(b) < plen {
			return nil
		}
		v, err := storage.DecodeColumn(typ, n, b[:plen])
		if err != nil {
			return nil
		}
		cols[i], b = v, b[plen:]
	}
	return cols
}

// FuzzReadPartial feeds the partial-row reader spill chunks it did not
// just write. Whatever decodes into columns must either be rejected
// with errCorruptSpill or merge and emit without a panic.
func FuzzReadPartial(f *testing.F) {
	layouts := fuzzLayouts()
	for li, l := range layouts {
		tab := buildExactTable(f, 300, int64(li))
		at, in := newAggTable(l.spec), newAggInputs(l.spec)
		ch, err := tab.Data.Snapshot().Segment(0, nil)
		if err != nil {
			f.Fatal(err)
		}
		if err := in.eval(ch, 0); err != nil {
			f.Fatal(err)
		}
		if err := at.consumeVecs(in.keys, in.hashes, in.args, in.pos); err != nil {
			f.Fatal(err)
		}
		good := encodeSpillChunk(f, at.partial(identitySel(at.numGroups())).chunk())
		f.Add(byte(li), good)
		f.Add(byte(li+1), good)             // another aggregation's layout
		f.Add(byte(li), good[:len(good)/2]) // truncated
		flipped := bytes.Clone(good)
		flipped[len(flipped)-3] ^= 0xFF // the last state column, or a DISTINCT blob's tail
		f.Add(byte(li), flipped)
	}
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		cols := decodeSpillChunk(data)
		if cols == nil {
			return
		}
		l := layouts[int(which)%len(layouts)]
		p, err := l.readPartial(cols)
		if err != nil {
			if !errors.Is(err, errCorruptSpill) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		at := newAggTable(l.spec)
		at.mergePartial(p)
		at.mergePartial(p) // every group now exists: the merge loops run, not just inserts
		// A DISTINCT set entry that is not an encoded value of the
		// argument's type surfaces when the set is folded.
		if _, err := at.emitRun(); err != nil && !errors.Is(err, errCorruptSpill) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
