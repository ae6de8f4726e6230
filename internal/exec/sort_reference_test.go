package exec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// referenceOrder is the ordering the kernel replaced, kept as the
// oracle: one sort.Slice over the whole input whose less-function asks
// compareKeyRows for every pair and breaks ties by input position. It
// returns the row indexes in output order.
func referenceOrder(keys []plan.SortKey, keyVecs []*vector.Vector, pos []int64) ([]int, error) {
	idx := make([]int, len(pos))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.Slice(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		c, err := compareKeyRows(keys, keyVecs, a, keyVecs, b)
		if err != nil {
			sortErr = err
			return false
		}
		if c != 0 {
			return c < 0
		}
		return pos[a] < pos[b]
	})
	return idx, sortErr
}

// The columns of the table the ordering cases sort. Between them: every
// key type, NULL everywhere it can appear, NaN, both zeros, both
// infinities, the int64 extremes (MaxInt64 shares NULL's code), "",
// strings that share their first eight bytes, strings that differ only
// by a trailing NUL byte, an all-equal and an all-NULL column, and the
// two shapes the order-restoring sorts have: a non-NULL BIGINT pair
// (probe position, build sequence) and one unique non-NULL BIGINT (row
// position) in scattered order.
const (
	soID     = iota // BIGINT, the row number: makes every output row identifiable
	soI32           // INTEGER, few values, NULLs
	soI64           // BIGINT incl. MinInt64, MaxInt64, NULLs
	soF             // DOUBLE: NaN, ±Inf, ±0, values, NULLs
	soBool          // BOOLEAN, NULLs
	soStr           // VARCHAR, see above, NULLs
	soBlob          // BLOB, NULLs
	soSame          // BIGINT, one value
	soNull          // DOUBLE, all NULL
	soPosKey        // BIGINT non-NULL, small groups of equal values
	soSeq           // BIGINT non-NULL, nearly unique
	soRowPos        // BIGINT non-NULL, unique, scattered
	soUniq          // BIGINT, unique, NULL-free: a leading key that leaves nothing to the next
)

var soSchema = catalog.Schema{
	{Name: "id", Type: vector.Int64}, {Name: "i32", Type: vector.Int32}, {Name: "i64", Type: vector.Int64},
	{Name: "f", Type: vector.Float64}, {Name: "b", Type: vector.Bool}, {Name: "s", Type: vector.String},
	{Name: "bl", Type: vector.Blob}, {Name: "same", Type: vector.Int64}, {Name: "nul", Type: vector.Float64},
	{Name: "poskey", Type: vector.Int64}, {Name: "seq", Type: vector.Int64}, {Name: "rowpos", Type: vector.Int64},
	{Name: "uniq", Type: vector.Int64},
}

func buildSortTable(t testing.TB, rows int, seed int64) *catalog.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*vector.Vector, len(soSchema))
	for i, c := range soSchema {
		cols[i] = vector.New(c.Type, rows)
	}
	i64s := []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, -1, 0, 1, 1 << 40, -(1 << 40)}
	fs := []float64{math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 0.5, -0.5, -2.25, 1e300, -1e300, 5e-324}
	strs := []string{"", "a", "a\x00", "a\x00\x00", "ab", "b", "prefix__", "prefix__\x00", "prefix__a", "prefix__b",
		"prefix__a\x00", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "ü", "zebra"}
	blobs := [][]byte{{}, {0}, {1, 2, 3}, []byte("blob")}
	perm := rng.Perm(rows)
	for r := 0; r < rows; r++ {
		add := func(c int, v vector.Value) {
			if rng.Intn(9) == 0 {
				v = vector.Null()
			}
			cols[c].AppendValue(v)
		}
		cols[soID].AppendValue(vector.NewInt64(int64(r)))
		add(soI32, vector.NewInt32(int32(rng.Intn(7)-3)))
		if rng.Intn(3) == 0 {
			add(soI64, vector.NewInt64(i64s[rng.Intn(len(i64s))]))
		} else {
			add(soI64, vector.NewInt64(rng.Int63n(1<<20)-1<<19))
		}
		if rng.Intn(2) == 0 {
			add(soF, vector.NewFloat64(fs[rng.Intn(len(fs))]))
		} else {
			add(soF, vector.NewFloat64((rng.Float64()-0.5)*2000))
		}
		add(soBool, vector.NewBool(rng.Intn(2) == 0))
		add(soStr, vector.NewString(strs[rng.Intn(len(strs))]))
		add(soBlob, vector.NewBlob(blobs[rng.Intn(len(blobs))]))
		cols[soSame].AppendValue(vector.NewInt64(42))
		cols[soNull].AppendValue(vector.Null())
		cols[soPosKey].AppendValue(vector.NewInt64(int64(rng.Intn(rows/3 + 1))))
		cols[soSeq].AppendValue(vector.NewInt64(int64(rng.Intn(rows * 4))))
		cols[soRowPos].AppendValue(vector.NewInt64(int64(perm[r])<<32 | int64(perm[r]%2048)))
		cols[soUniq].AppendValue(vector.NewInt64(int64(perm[rows-1-r]) - int64(rows/2)))
	}
	tab, err := catalog.New().CreateTable("so", soSchema)
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

func soCol(c int) plan.Expr { return colRef(c, soSchema[c].Type) }

// soKeyShapes: each single key type, two- and three-key mixes,
// expression keys, and the shapes of the two order-restoring sorts.
var soKeyShapes = [][]plan.Expr{
	{soCol(soI32)}, {soCol(soI64)}, {soCol(soF)}, {soCol(soBool)}, {soCol(soStr)}, {soCol(soBlob)},
	{soCol(soSame)}, {soCol(soNull)},
	{soCol(soF), soCol(soID)}, {soCol(soStr), soCol(soI32)}, {soCol(soI64), soCol(soStr)}, {soCol(soBool), soCol(soF)},
	{soCol(soI32), soCol(soStr), soCol(soF)}, {soCol(soSame), soCol(soNull), soCol(soI64)}, {soCol(soBool), soCol(soI32), soCol(soBlob)},
	{soCol(soUniq), soCol(soBlob)},
	{&plan.BinOp{Op: sql.OpAdd, Left: soCol(soI32), Right: soCol(soPosKey), Typ: vector.Int64}},
	{&plan.Neg{Operand: soCol(soF)}, soCol(soStr)},
	{soCol(soStr), &plan.BinOp{Op: sql.OpMul, Left: soCol(soI32), Right: soCol(soF), Typ: vector.Float64}},
	{soCol(soPosKey), soCol(soSeq)},
	{soCol(soRowPos)},
}

// wholeTable is the table's rows as one chunk in storage order, which
// is position order for every execution mode.
func wholeTable(t testing.TB, tab *catalog.Table) *vector.Chunk {
	t.Helper()
	cols := make([]*vector.Vector, len(tab.Schema))
	for i, c := range tab.Schema {
		cols[i] = vector.New(c.Type, 0)
	}
	snap := tab.Data.Snapshot()
	for m := 0; m < snap.NumSegments(); m++ {
		ch, err := snap.Segment(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cols {
			cols[i].AppendVector(ch.Col(i))
		}
	}
	return vector.NewChunk(cols...)
}

// referenceSort is the oracle's answer to ORDER BY keys LIMIT count
// OFFSET offset (count 0: no limit) over the whole table.
func referenceSort(t testing.TB, keys []plan.SortKey, all *vector.Chunk, count, offset int64) ([]*vector.Vector, error) {
	t.Helper()
	keyVecs := make([]*vector.Vector, len(keys))
	for i, k := range keys {
		v, err := plan.Evaluate(k.Expr, all)
		if err != nil {
			t.Fatal(err)
		}
		keyVecs[i] = v
	}
	pos := make([]int64, all.NumRows())
	for i := range pos {
		pos[i] = int64(i)
	}
	idx, err := referenceOrder(keys, keyVecs, pos)
	if err != nil {
		return nil, err
	}
	if count > 0 {
		idx = idx[min(offset, int64(len(idx))):min(offset+count, int64(len(idx)))]
	}
	return all.Gather(idx).Cols(), nil
}

// sortBufferBytes is what a serial sort of the table charges to the
// budget once every row is buffered: a budget one byte below it spills
// on the last chunk.
func sortBufferBytes(t testing.TB, keys []plan.SortKey, tab *catalog.Table) int64 {
	t.Helper()
	b := newRunBuilder(&Context{}, keys, 0, "probe", &nodeStats{})
	snap := tab.Data.Snapshot()
	for m := 0; m < snap.NumSegments(); m++ {
		ch, err := snap.Segment(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.add(ch, int64(m)<<32); err != nil {
			t.Fatal(err)
		}
	}
	return b.bytes
}

// TestSortKernelMatchesReference checks the ordering kernel against the
// comparison sort it replaced, byte for byte, over seeded cases: every
// case at workers 1/2/3/8 with no budget; every other case also under
// a tiny budget (many spilled runs, wide merges) and a budget one byte
// under the buffered input (one spill, on the last chunk) at a worker
// count that rotates with the case; every sixteenth case the full
// workers × budgets matrix. Limits cover none, 1, 100 with an offset,
// and more than the table holds.
func TestSortKernelMatchesReference(t *testing.T) {
	old := sortRunCap
	sortRunCap = 8
	t.Cleanup(func() { sortRunCap = old })

	type bound struct{ count, offset int64 }
	bounds := []bound{{0, 0}, {1, 0}, {100, 7}, {1 << 20, 3}, {5, 1 << 20}}
	cases := 0
	for si, shape := range soKeyShapes {
		for dir := 0; dir < 3; dir++ { // all ascending, all descending, alternating from descending
			for seed := int64(1); seed <= 4; seed++ {
				cases++
				rows := 2*vector.DefaultChunkSize + 300*int(seed)
				bd := bounds[(si+dir+int(seed))%len(bounds)]
				if bd.count > 0 && bd.count <= 100 {
					rows += 3 * vector.DefaultChunkSize // past the first top-k compaction
				}
				if cases%29 == 0 {
					rows = 0
				}
				keys := make([]plan.SortKey, len(shape))
				for i, e := range shape {
					keys[i] = plan.SortKey{Expr: e, Desc: dir == 1 || dir == 2 && i%2 == 0}
				}
				tab := buildSortTable(t, rows, seed*1000+int64(si*10+dir))
				node := plan.Node(&plan.Sort{Keys: keys, Child: &plan.Scan{Table: tab}})
				if bd.count > 0 {
					node.(*plan.Sort).Limit = bd.offset + bd.count
					node = &plan.Limit{Count: bd.count, Offset: bd.offset, Child: node}
				}
				want, wantErr := referenceSort(t, keys, wholeTable(t, tab), bd.count, bd.offset)
				check := func(label string, ctx *Context) {
					got, err := Run(node, ctx)
					switch {
					case wantErr != nil && bd.count > 0:
						// A bounded sort may stop before it compares the pair the
						// full sort cannot order.
					case wantErr != nil:
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s: error %v, want %v", label, err, wantErr)
						}
					case err != nil:
						t.Fatalf("%s: %v", label, err)
					default:
						assertSameBytes(t, label, got.Cols, want)
					}
				}
				workerCounts := []int{1, 2, 3, 8}
				budgets := []int64{16 << 10, max(sortBufferBytes(t, keys, tab)-1, 1)}
				for wi, workers := range workerCounts {
					label := fmt.Sprintf("shape=%d dir=%d seed=%d rows=%d limit=%d offset=%d workers=%d", si, dir, seed, rows, bd.count, bd.offset, workers)
					check(label, &Context{Parallelism: workers})
					if cases%16 != 0 && (cases%2 != 0 || wi != cases/2%len(workerCounts)) {
						continue
					}
					for _, budget := range budgets {
						ctx, dir := spillCtx(t, workers, budget)
						check(fmt.Sprintf("%s budget=%d", label, budget), ctx)
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

// TestSortExtendsRunsInOrder: under a budget that spills every chunk,
// a run that sorts wholly after the rows spilled before it extends the
// last run. Input in key order makes one run; in reverse order, a run
// per chunk; mostly in order (a constant key, tied on position), one
// again. The bytes are the reference's either way.
func TestSortExtendsRunsInOrder(t *testing.T) {
	const chunks = 6
	tab := buildSortTable(t, chunks*vector.DefaultChunkSize, 9)
	all := wholeTable(t, tab)
	for _, c := range []struct {
		keys []plan.SortKey
		runs int64
	}{
		{[]plan.SortKey{{Expr: soCol(soID)}}, 1},
		{[]plan.SortKey{{Expr: soCol(soID), Desc: true}}, chunks},
		{[]plan.SortKey{{Expr: soCol(soSame)}}, 1},
	} {
		want, err := referenceSort(t, c.keys, all, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx, dir := spillCtx(t, 1, 1)
		got := runPlan(t, &plan.Sort{Keys: c.keys, Child: &plan.Scan{Table: tab}}, ctx)
		label := fmt.Sprintf("keys=%v", c.keys)
		assertSameBytes(t, label, got.Cols, want)
		if runs := ctx.prof.Runs(); runs != c.runs {
			t.Errorf("%s: %d runs spilled, want %d", label, runs, c.runs)
		}
		assertTempDirEmpty(t, dir)
	}
}

// TestTopKShedsRowsBeforeSpilling: a LIMIT sort whose workers' buffers
// together exceed the budget before any of them reaches the compaction
// floor must compact — drop the rows that cannot reach the top k —
// rather than write runs: same rows, nothing spilled.
func TestTopKShedsRowsBeforeSpilling(t *testing.T) {
	old := sortRunCap
	sortRunCap = 8
	t.Cleanup(func() { sortRunCap = old })
	tab := buildSortTable(t, 16*vector.DefaultChunkSize, 3)
	keys := []plan.SortKey{{Expr: soCol(soF), Desc: true}, {Expr: soCol(soID)}}
	node := &plan.Limit{Count: 100, Child: &plan.Sort{Keys: keys, Limit: 100, Child: &plan.Scan{Table: tab}}}
	want, err := referenceSort(t, keys, wholeTable(t, tab), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three chunks' worth: the fourth resident chunk is over budget, and
	// one chunk is more than a quarter of it.
	ctx, dir := spillCtx(t, 8, 3*sortBufferBytes(t, keys, tab)/16)
	got := runPlan(t, node, ctx)
	assertSameBytes(t, "top-k under pressure", got.Cols, want)
	if ctx.prof.Spilled() {
		t.Fatalf("top-k spilled %d runs, %d bytes", ctx.prof.Runs(), ctx.prof.BytesWritten())
	}
	assertTempDirEmpty(t, dir)
}

// TestSortRunsFollowScheduler: parallel run generation cuts as many
// runs as the scheduler will run threads, not as many as the host has
// cores: under GOMAXPROCS=1 eight workers still build one run.
func TestSortRunsFollowScheduler(t *testing.T) {
	tab := buildSortTable(t, 6*vector.DefaultChunkSize, 1)
	spec := &plan.Sort{Keys: []plan.SortKey{{Expr: soCol(soF)}}, Child: &plan.Scan{Table: tab}}
	for _, procs := range []int{1, 3} {
		old := runtime.GOMAXPROCS(procs)
		ctx := &Context{Parallelism: 8}
		pipe, err := pipeline(spec.Child, 8, &Profile{})
		if err != nil {
			t.Fatal(err)
		}
		op := &sortOp{spec: spec, st: &nodeStats{}, in: pipe}
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		builders, err := op.fillBuilders()
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if len(builders) != procs {
			t.Fatalf("GOMAXPROCS=%d: %d run builders", procs, len(builders))
		}
	}
}

// TestSortRecsMatchesComparisonSort: the record sort, on both sides of
// radixMin, orders codes like a comparison sort and keeps equal codes
// in their incoming order (which run building relies on only for
// speed, never for correctness).
func TestSortRecsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, radixMin - 1, radixMin, 5000, 70_000} {
		for _, spread := range []uint64{1, 3, 1 << 9, 1 << 33, math.MaxUint64} {
			recs := make([]sortRec, n)
			for i := range recs {
				recs[i] = sortRec{code: rng.Uint64() % spread << (spread % 13), row: i}
			}
			want := slices.Clone(recs)
			slices.SortStableFunc(want, func(a, b sortRec) int { return cmp.Compare(a.code, b.code) })
			sortRecs(recs, make([]sortRec, n))
			for i := range want {
				if recs[i].code != want[i].code || n >= radixMin && recs[i].row != want[i].row {
					t.Fatalf("n=%d spread=%d: record %d is %v, want %v", n, spread, i, recs[i], want[i])
				}
			}
		}
	}
}

// TestSortBudgetTracksHeap: what an in-memory sort charges to the
// memory budget must be what it retains. A 256k-row two-key sort is
// built twice — the second time with the heap measured around it — and
// the tracked bytes must be within [0.8, 1.5]x of the heap's growth
// both when the input is buffered and when the sorted run is finished.
func TestSortBudgetTracksHeap(t *testing.T) {
	const rows = 256 << 10
	keys := []plan.SortKey{{Expr: colRef(1, vector.Float64), Desc: true}, {Expr: colRef(0, vector.Int64)}}
	ids, vs := make([]int64, vector.DefaultChunkSize), make([]float64, vector.DefaultChunkSize)
	fill := func(ctx *Context) *runBuilder {
		b := newRunBuilder(ctx, keys, 0, "sort", &nodeStats{})
		for m := 0; m < rows/len(ids); m++ {
			for r := range ids {
				ids[r], vs[r] = int64(m*len(ids)+r), float64((m*len(ids)+r)*7919%100_003)
			}
			if err := b.add(vector.NewChunk(vector.FromInt64s(ids), vector.FromFloat64s(vs)), int64(m)<<32); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	warm := fill(&Context{})
	if err := warm.finish(); err != nil { // warm up: size classes, the test's own buffers
		t.Fatal(err)
	}
	heapNow := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ctx := &Context{mem: newMemTracker(1 << 40)}
	before := heapNow()
	b := fill(ctx)
	buffered, tracked := heapNow()-before, ctx.mem.used.Load()
	if ratio := float64(tracked) / float64(buffered); ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("buffered: tracked %d bytes, heap grew %d: ratio %.2f outside [0.8, 1.5]", tracked, buffered, ratio)
	}
	if err := b.finish(); err != nil {
		t.Fatal(err)
	}
	runs := b.runs
	finished, held := heapNow()-before, ctx.mem.used.Load()
	if ratio := float64(held) / float64(finished); ratio < 0.8 || ratio > 1.5 || held != b.held {
		t.Fatalf("finished: tracked %d bytes (held %d), heap grew %d: ratio %.2f outside [0.8, 1.5]", held, b.held, finished, ratio)
	}
	t.Logf("buffered: tracked %d, heap %d; finished run: tracked %d, heap %d (%d rows)", tracked, buffered, held, finished, runs[0].cur.data.NumRows())
	runtime.KeepAlive(runs)
}

// fuzzCell builds a one-row vector of type t from raw bytes.
func fuzzCell(t vector.Type, raw []byte, null bool) *vector.Vector {
	var word [8]byte
	copy(word[:], raw)
	bits := binary.LittleEndian.Uint64(word[:])
	v := vector.New(t, 1)
	switch t {
	case vector.Bool:
		v.AppendValue(vector.NewBool(bits&1 == 1))
	case vector.Int32:
		v.AppendValue(vector.NewInt32(int32(bits)))
	case vector.Int64:
		v.AppendValue(vector.NewInt64(int64(bits)))
	case vector.Float64:
		v.AppendValue(vector.NewFloat64(math.Float64frombits(bits)))
	case vector.String:
		v.AppendValue(vector.NewString(string(raw)))
	default:
		v.AppendValue(vector.NewBlob(raw))
	}
	if null {
		v.SetNull(0)
	}
	return v
}

// FuzzSortKeyOrder: for any two cells of one type, the order of their
// codes never contradicts compareKeyRows — different codes order the
// cells the way the comparator does, and equal codes that the coder
// says decide the key belong to cells the comparator calls equal. Keys
// that are not coded (BLOB) must say so.
func FuzzSortKeyOrder(f *testing.F) {
	le := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	for typ := byte(0); typ < 6; typ++ {
		f.Add(typ, []byte{}, []byte{0}, false, false, false)
		f.Add(typ, []byte("a"), []byte("a\x00"), true, false, false)
		f.Add(typ, []byte("prefix__a"), []byte("prefix__b"), false, false, true)
		f.Add(typ, []byte("prefix__"), []byte("prefix__\x00"), true, true, false)
		f.Add(typ, le(math.MaxInt64), le(0), false, false, true)
		f.Add(typ, le(math.MaxInt64), le(math.MaxInt64), true, true, true)
		f.Add(typ, le(1<<63), le(math.MaxInt64), false, false, false)
		f.Add(typ, le(math.Float64bits(math.NaN())), le(math.Float64bits(math.Inf(1))), false, false, false)
		f.Add(typ, le(0x7FF0000000000001), le(0xFFFFFFFFFFFFFFFF), true, false, false)
		f.Add(typ, le(math.Float64bits(math.Copysign(0, -1))), le(0), false, false, false)
		f.Add(typ, le(math.Float64bits(-1.5)), le(math.Float64bits(math.Inf(-1))), true, false, false)
		f.Add(typ, []byte("\xff\xff\xff\xff\xff\xff\xff\xff"), []byte("\xff\xff\xff\xff\xff\xff\xff"), false, true, false)
	}
	types := []vector.Type{vector.Bool, vector.Int32, vector.Int64, vector.Float64, vector.String, vector.Blob}
	f.Fuzz(func(t *testing.T, typ byte, a, b []byte, desc, aNull, bNull bool) {
		vt := types[int(typ)%len(types)]
		coder := newSortCoder([]plan.SortKey{{Expr: colRef(0, vt), Desc: desc}})
		va, vb := fuzzCell(vt, a, aNull), fuzzCell(vt, b, bNull)
		ca, cb := coder.encode(0, va, nil), coder.encode(0, vb, nil)
		if vt == vector.Blob {
			if ca != nil || cb != nil {
				t.Fatalf("BLOB cells were coded: %x %x", ca, cb)
			}
			return
		}
		want, err := compareKeyRows(coder.keys, []*vector.Vector{va}, 0, []*vector.Vector{vb}, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch got := cmp.Compare(ca[0], cb[0]); {
		case got != 0 && got != cmp.Compare(want, 0):
			t.Fatalf("%s desc=%v: codes %016x vs %016x order %v and %v as %d, the comparator as %d", vt, desc, ca[0], cb[0], va.Get(0), vb.Get(0), got, want)
		case got == 0 && want != 0 && coder.decides(0, ca[0]):
			t.Fatalf("%s desc=%v: %v and %v share code %016x, which claims to decide, but compare as %d", vt, desc, va.Get(0), vb.Get(0), ca[0], want)
		case got == 0 && want == 0 && !aNull && !bNull && vt != vector.String && !coder.decides(0, ca[0]) &&
			!(vt == vector.Int64 && va.Int64s()[0] == math.MaxInt64):
			t.Fatalf("%s desc=%v: equal non-NULL cells %v share code %016x, which does not decide", vt, desc, va.Get(0), ca[0])
		}
	})
}
