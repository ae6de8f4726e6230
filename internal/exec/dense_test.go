package exec

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// domainTable builds a table of two key columns of the types keys (the
// second Invalid for none), an id and a VARCHAR name, from fuzz bytes:
// sealed full segments then a tail of tailRows. Row i reads byte
// data[i % len(data)]: an integer key is base plus the byte modulo
// span, a VARCHAR key names the byte modulo span shifted by the
// segment, so each segment has a dictionary of its own; a byte ≡ 0
// mod 13 is a NULL key where nulls allow it (the tail always). wide
// makes every 97th BIGINT value base ± 2^62 instead, a domain whose
// max − min is near or past 2^63. compress seals with statistics.
func domainTable(t testing.TB, keys [2]vector.Type, sealed, tailRows int, base int64, span byte, nulls, wide bool, data []byte, compress bool) *catalog.Table {
	t.Helper()
	schema := catalog.Schema{{Name: "k0", Type: keys[0]}}
	if keys[1] != vector.Invalid {
		schema = append(schema, catalog.Column{Name: "k1", Type: keys[1]})
	}
	schema = append(schema, catalog.Column{Name: "id", Type: vector.Int64}, catalog.Column{Name: "name", Type: vector.String}, catalog.Column{Name: "w", Type: vector.Float64})
	rows := sealed*storage.SegmentRows + tailRows
	cols := make([]*vector.Vector, len(schema))
	for c, col := range schema {
		cols[c] = vector.New(col.Type, rows)
	}
	span = max(span, 1)
	for i := range rows {
		b, seg := data[i%len(data)], i/storage.SegmentRows
		for k := range len(schema) - 3 {
			b := b ^ byte(k*0x5b)
			var v vector.Value
			switch typ := schema[k].Type; {
			case b%13 == 0 && (nulls || seg == sealed):
				v = vector.Null()
			case typ == vector.String:
				v = vector.NewString(fmt.Sprintf("v%d", (int(b%span)+3*seg)%(2*int(span))))
			case typ == vector.Int64 && wide && i%97 == 0:
				v = vector.NewInt64(base ^ math.MinInt64>>1)
			case typ == vector.Int64:
				v = vector.NewInt64(base + int64(b%span))
			default:
				v = vector.NewInt32(int32(base) + int32(b%span))
			}
			cols[k].AppendValue(v)
		}
		n := len(schema)
		cols[n-3].AppendValue(vector.NewInt64(int64(i)))
		cols[n-2].AppendValue(vector.NewString(fmt.Sprintf("n%d", int(b)*7%23)))
		cols[n-1].AppendValue(vector.NewFloat64(float64(int(b)%9-4) / 4))
	}
	tab, err := catalog.New().CreateTable("g", schema)
	if err != nil {
		t.Fatal(err)
	}
	tab.Data.SetCompression(compress)
	if err := tab.Data.AppendChunk(vector.NewChunk(cols...)); err != nil {
		t.Fatal(err)
	}
	return tab
}

// domainAgg is the aggregation the domain tests run over a
// domainTable: every aggregate kind a dense table holds, a DISTINCT
// one, and MIN/MAX over strings.
func domainAgg(tab *catalog.Table) *plan.Aggregate {
	nk := len(tab.Schema) - 3
	spec := &plan.Aggregate{Child: &plan.Scan{Table: tab}}
	for k := range nk {
		spec.GroupBy = append(spec.GroupBy, colRef(k, tab.Schema[k].Type))
		spec.GroupNames = append(spec.GroupNames, tab.Schema[k].Name)
	}
	arg := func(c int) plan.Expr { return colRef(c, tab.Schema[c].Type) }
	spec.Aggs = []plan.AggSpec{
		{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
		{Kind: plan.AggSum, Arg: arg(nk + 2), Name: "sw", Typ: vector.Float64},
		{Kind: plan.AggMax, Arg: arg(nk), Name: "last", Typ: vector.Int64},
		{Kind: plan.AggMin, Arg: arg(nk + 1), Name: "mn", Typ: vector.String},
		{Kind: plan.AggCount, Arg: arg(nk + 1), Distinct: true, Name: "dn", Typ: vector.Int64},
		{Kind: plan.AggSum, Arg: arg(0), Name: "s0", Typ: vector.Float64},
	}
	if tab.Schema[0].Type == vector.String {
		spec.Aggs[5] = plan.AggSpec{Kind: plan.AggMax, Arg: arg(0), Name: "s0", Typ: vector.String}
	} else if tab.Schema[0].Type != vector.Float64 {
		spec.Aggs[5].Typ = vector.Int64
	}
	return spec
}

// FuzzGroupDomain: an aggregation over a compressed table, which
// groups on codes wherever its keys' domains fit, returns what the
// same rows stored raw return, which have no statistics and hash — for
// key types, values, NULLs, per-segment dictionaries and a tail from
// the fuzzer's bytes. A BIGINT key whose max − min is not below the
// row count — near ±2^63 the difference overflows int64 — has no
// domain.
func FuzzGroupDomain(f *testing.F) {
	f.Add(byte(0), byte(1), int64(-40), byte(30), []byte("\x01\x02\x03\x05\x08\x0d\x15\x22"))
	f.Add(byte(4), byte(4), int64(0), byte(9), []byte("abcdefghijklmnop"))
	f.Add(byte(1|16), byte(2), int64(math.MaxInt64-3), byte(4), []byte{0, 1, 2, 3, 26, 39})
	f.Add(byte(1|32), byte(1), int64(math.MinInt64+1), byte(200), []byte{7, 11, 200, 13})
	f.Add(byte(5|16|64), byte(5), int64(1)<<40, byte(60), []byte("\xff\x00\x7f\x80\x41"))
	f.Fuzz(func(t *testing.T, shape, segs byte, base int64, span byte, data []byte) {
		if len(data) == 0 {
			return
		}
		types := []vector.Type{vector.Int64, vector.Int32, vector.String}
		keys := [2]vector.Type{types[shape%3], vector.Invalid}
		if shape&4 != 0 {
			keys[1] = types[(shape/8)%3]
		}
		nulls, wide := shape&16 != 0, shape&32 != 0
		sealed, tail := int(segs%3), int(segs/3%4)*257+1
		build := func(compress bool) *catalog.Table {
			return domainTable(t, keys, sealed, tail, base, span, nulls, wide, data, compress)
		}
		dz, ref := build(true), build(false)
		want := runPlan(t, domainAgg(ref), &Context{Parallelism: 1, prof: &Profile{}})

		snap := dz.Data.Snapshot()
		dom := newGroupDomain(snap, &plan.Scan{Table: dz}, domainAgg(dz).GroupBy)
		for c, st := range snap.ColumnStatistics()[:len(dz.Schema)-3] {
			if dz.Schema[c].Type == vector.Int64 && st.HasMinMax && uint64(st.Max.Int64())-uint64(st.Min.Int64()) >= uint64(snap.NumRows()) && dom != nil {
				t.Fatalf("key %d spans [%d, %d] over %d rows and has a domain", c, st.Min.Int64(), st.Max.Int64(), snap.NumRows())
			}
		}
		for _, workers := range []int{1, 3} {
			spec := domainAgg(dz)
			ctx := &Context{Parallelism: workers, prof: &Profile{}}
			assertTablesEqual(t, runPlan(t, spec, ctx), want, fmt.Sprintf("workers=%d", workers))
			if dense := ctx.prof.node(spec).dense.Load(); (dense > 0) != (dom != nil) {
				t.Fatalf("workers=%d: %d dense slots, domain %v", workers, dense, dom != nil)
			}
		}
		ctx, _ := spillCtx(t, 2, 16<<10)
		assertTablesEqual(t, runPlan(t, domainAgg(dz), ctx), want, "budgeted")
	})
}

// TestDenseTableBoundsItsWork is TestAggInsertsEachGroupOnce's sibling
// for dense tables, over the same 64k-value BIGINT input with its
// statistics: each consumer inserts a group where its rows first
// touch a slot, so groups inserted are at most workers × emitted, with
// no partitioning; and the consumers' tables are charged workers ×
// slots × the slot width, the domain being max − min + 1 values and
// NULL.
func TestDenseTableBoundsItsWork(t *testing.T) {
	const rows = 256_000
	x := uint64(1)
	tab := buildSwitchTable(t, rows, func(int) (int64, bool) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % (rows / 4)), true
	})
	st := tab.Data.ColumnStatistics()[swK]
	slots := st.Max.Int64() - st.Min.Int64() + 2
	for _, workers := range []int{1, 2, 3, 8} {
		spec := &plan.Aggregate{GroupBy: []plan.Expr{colRef(swK, vector.Int64)}, GroupNames: []string{"k"},
			Aggs: []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, swAgg(plan.AggSum, swW, false), swAgg(plan.AggMax, swID, false)}, Child: &plan.Scan{Table: tab}}
		ctx := &Context{Parallelism: workers, prof: &Profile{}}
		out := runPlan(t, spec, ctx)
		ns := ctx.prof.node(spec)
		inserted, emitted := ns.groupsInserted.Load(), ns.groupsEmitted.Load()
		if emitted != int64(out.NumRows()) || emitted < 60_000 || ns.dense.Load() != slots {
			t.Fatalf("workers=%d: %d groups emitted, %d rows out, %d dense slots of %d", workers, emitted, out.NumRows(), ns.dense.Load(), slots)
		}
		if inserted > int64(workers)*emitted || ns.partitionedAt.Load() != 0 || workers == 1 && inserted != emitted {
			t.Errorf("workers=%d: %d groups inserted for %d emitted, partitioned at row %d", workers, inserted, emitted, ns.partitionedAt.Load())
		}

		// The charge, read off the consumers the aggregation creates.
		ctx, _ = spillCtx(t, workers, 1<<40)
		ctx.mem = newMemTracker(ctx.MemoryBudget)
		a := newAggregation(ctx, spec, workers, ctx.prof.node(spec))
		in, err := feed(spec.Child, workers, true, ctx.prof)
		if err != nil {
			t.Fatal(err)
		}
		a.groupOnCodes(in)
		var threads []aggConsumers
		for range workers {
			threads = append(threads, a.newConsumers())
		}
		width := denseWidth(threads[0][0].table.shapes)
		if got, want := ctx.mem.used.Load(), int64(workers)*slots*width; got != want || width != 8+8+16+9+4 {
			t.Errorf("workers=%d: %d bytes charged, want %d x %d slots x %d", workers, got, workers, slots, width)
		}
		for _, cs := range threads {
			cs[0].abandon()
		}
		if used := ctx.mem.used.Load(); used != 0 {
			t.Errorf("workers=%d: %d bytes charged after abandon", workers, used)
		}
	}
}

// TestGroupDomainRejectsUnderstatedStatistics: a key value outside the
// domain the statistics give is storage.ErrOutOfDomain, not an index
// out of range, through every encoding's slot kernel.
func TestGroupDomainRejectsUnderstatedStatistics(t *testing.T) {
	vals := []int64{5, 6, 7, 9, 5, 5, 5, 5}
	for _, enc := range []storage.Encoding{storage.EncRaw, storage.EncFOR, storage.EncRLE} {
		for _, typ := range []vector.Type{vector.Int32, vector.Int64} {
			v := vector.New(typ, len(vals))
			for _, x := range vals {
				if typ == vector.Int32 {
					v.AppendValue(vector.NewInt32(int32(x)))
				} else {
					v.AppendValue(vector.NewInt64(x))
				}
			}
			c, err := storage.SealColumn(v, enc)
			if err != nil {
				t.Fatal(err)
			}
			sel := identitySel(len(vals))
			ids := make([]int32, len(vals))
			if err := c.IntSlots(ids, sel, 5, 5, 1); err != nil {
				t.Fatalf("%s %s: %v", enc, typ, err)
			}
			for lo, n := range map[int64]uint64{5: 4, 6: 4, 5 - 1<<40: 3} {
				if err := c.IntSlots(make([]int32, len(vals)), sel, lo, n, 1); !errors.Is(err, storage.ErrOutOfDomain) {
					t.Errorf("%s %s domain %d+%d: err = %v", enc, typ, lo, n, err)
				}
			}
		}
	}
}

// TestSparseKeyHashes: a key whose few values lie far apart — here 0
// and rows/2, a domain within the row count — has more slots than
// denseSparsity × its distinct values allow, so its table hashes
// instead of holding a replica of mostly untouched slots per worker.
func TestSparseKeyHashes(t *testing.T) {
	const rows = 64_000
	key := func(i int) (int64, bool) { return int64(i%2) * rows / 2, true }
	tab, ref := buildSwitchTable(t, rows, key), buildSwitchTableStats(t, rows, key, false)
	agg := func(tab *catalog.Table) *plan.Aggregate {
		return &plan.Aggregate{GroupBy: []plan.Expr{colRef(swK, vector.Int64)}, GroupNames: []string{"k"},
			Aggs: []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, swAgg(plan.AggSum, swW, false)}, Child: &plan.Scan{Table: tab}}
	}
	want := runPlan(t, agg(ref), &Context{Parallelism: 1, prof: &Profile{}})
	for _, workers := range []int{1, 2, 8} {
		spec := agg(tab)
		ctx := &Context{Parallelism: workers, prof: &Profile{}}
		assertTablesEqual(t, runPlan(t, spec, ctx), want, fmt.Sprintf("workers=%d", workers))
		if d := ctx.prof.node(spec).dense.Load(); d != 0 {
			t.Fatalf("workers=%d: %d dense slots for a key of two values", workers, d)
		}
	}
}

// TestDenseTablesShareTheFairShare: under a memory budget the dense
// tables of one aggregation — here the two of its DISTINCT aggregates,
// of the same size — together pass shouldSpill's fair-share test, not
// each on its own: at every budget of a sweep, four times what their
// replicas are charged stays below it, and some budget admits one
// table but not both.
func TestDenseTablesShareTheFairShare(t *testing.T) {
	tab := domainTable(t, [2]vector.Type{vector.Int64, vector.Int32}, 2, 100, 0, 30, false, false, []byte("\x03\x11\x29\x47\x62\x80\x9d\xbe"), true)
	spec := &plan.Aggregate{Child: &plan.Scan{Table: tab}, Aggs: []plan.AggSpec{
		{Kind: plan.AggCount, Arg: colRef(0, vector.Int64), Distinct: true, Name: "d0", Typ: vector.Int64},
		{Kind: plan.AggCount, Arg: colRef(1, vector.Int32), Distinct: true, Name: "d1", Typ: vector.Int64},
	}}
	const workers = 2
	var one, both bool
	for budget := int64(1 << 10); budget < 1<<20; budget += budget / 10 {
		ctx, _ := spillCtx(t, workers, budget)
		ctx.mem = newMemTracker(budget)
		a := newAggregation(ctx, spec, workers, ctx.prof.node(spec))
		in, err := feed(spec.Child, workers, true, ctx.prof)
		if err != nil {
			t.Fatal(err)
		}
		a.groupOnCodes(in)
		dense := 0
		for _, st := range a.tables {
			if st.dom != nil {
				dense++
			}
		}
		one, both = one || dense == 1, both || dense == 2
		var threads []aggConsumers
		for range workers {
			threads = append(threads, a.newConsumers())
		}
		if used := ctx.mem.used.Load(); 4*used >= budget {
			t.Fatalf("budget %d: %d dense tables charged %d bytes", budget, dense, used)
		}
		for _, cs := range threads {
			for _, c := range cs {
				c.abandon()
			}
		}
	}
	if !one || !both {
		t.Fatalf("the sweep never had one dense table (%v) or never both (%v)", one, both)
	}
}
