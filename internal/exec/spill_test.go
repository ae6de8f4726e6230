package exec

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync/atomic"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// buildSpillTable creates a multi-segment table with a high-cardinality
// int64 key (many groups), a skewed int32 key, a float column cycling
// through NaN/NULL/±Inf/duplicates, and a string column — the
// adversarial inputs for grace partitioning and external sort.
func buildSpillTable(t *testing.T, rows int) *catalog.Table {
	t.Helper()
	cat := catalog.New()
	tab, err := cat.CreateTable("s", catalog.Schema{
		{Name: "id", Type: vector.Int64},
		{Name: "hk", Type: vector.Int64},
		{Name: "sk", Type: vector.Int32},
		{Name: "v", Type: vector.Float64},
		{Name: "name", Type: vector.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, rows)
	hks := make([]int64, rows)
	sks := make([]int32, rows)
	vs := vector.New(vector.Float64, rows)
	names := make([]string, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		hks[i] = int64((i * 2654435761) % (rows * 3 / 4)) // high cardinality, some repeats
		sks[i] = int32(i % 7)                             // skewed / low cardinality
		switch i % 13 {
		case 3:
			vs.AppendValue(vector.NewFloat64(math.NaN()))
		case 5:
			vs.AppendValue(vector.Null())
		case 7:
			vs.AppendValue(vector.NewFloat64(math.Inf(1)))
		default:
			vs.AppendValue(vector.NewFloat64(float64(i%97) * 0.5)) // dyadic: exact sums
		}
		names[i] = "n" + string(rune('a'+i%26))
	}
	if err := tab.Data.AppendChunk(vector.NewChunk(
		vector.FromInt64s(ids), vector.FromInt64s(hks), vector.FromInt32s(sks),
		vs, vector.FromStrings(names))); err != nil {
		t.Fatal(err)
	}
	return tab
}

// runPlan executes node under ctx and returns the materialized result.
func runPlan(t *testing.T, node plan.Node, ctx *Context) *vector.Table {
	t.Helper()
	out, err := Run(node, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertTablesEqual compares two results cell by cell (float cells by
// bit pattern via Value.String, which distinguishes NaN).
func assertTablesEqual(t *testing.T, got, want *vector.Table, label string) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumCols(); c++ {
			gv, wv := got.Cols[c].Get(r), want.Cols[c].Get(r)
			if gv.String() != wv.String() {
				t.Fatalf("%s: row %d col %d: %v, want %v", label, r, c, gv, wv)
			}
		}
	}
}

// spillCtx returns a Context with a tiny budget and a per-test temp
// dir, plus the dir for cleanup assertions.
func spillCtx(t *testing.T, workers int, budget int64) (*Context, string) {
	t.Helper()
	dir := t.TempDir()
	return &Context{Parallelism: workers, MemoryBudget: budget, TempDir: dir, Spill: &SpillStats{}}, dir
}

func assertTempDirEmpty(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left in temp dir %s: %v", len(ents), dir, ents)
	}
}

// TestSpillAggMatchesInMemory: GROUP BY over a high-cardinality key
// with every aggregate kind (incl. DISTINCT) must produce byte-equal
// results under a tiny budget (forcing multi-level recursion) at any
// worker count, and leave no temp files behind.
func TestSpillAggMatchesInMemory(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	node := plan.Node(&plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(1, vector.Int64)},
		GroupNames: []string{"hk"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(3, vector.Float64), Name: "sv", Typ: vector.Float64},
			{Kind: plan.AggMin, Arg: colRef(3, vector.Float64), Name: "mn", Typ: vector.Float64},
			{Kind: plan.AggMax, Arg: colRef(4, vector.String), Name: "mx", Typ: vector.String},
			{Kind: plan.AggCount, Arg: colRef(4, vector.String), Distinct: true, Name: "cd", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Distinct: true, Name: "sd", Typ: vector.Int64},
		},
		Child: &plan.Scan{Table: tab},
	})
	want := runPlan(t, node, &Context{Parallelism: 1})
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{1 << 14, 1 << 19} { // 16KB forces deep recursion
			ctx, dir := spillCtx(t, workers, budget)
			got := runPlan(t, node, ctx)
			assertTablesEqual(t, got, want, "agg spill")
			if !ctx.Spill.Spilled() {
				t.Fatalf("workers=%d budget=%d: expected spilling", workers, budget)
			}
			if ctx.Spill.Partitions() == 0 {
				t.Fatalf("workers=%d budget=%d: no partitions spilled", workers, budget)
			}
			assertTempDirEmpty(t, dir)
		}
	}
}

// TestSpillAggNullAndNaNKeys: NULL and NaN group keys must group and
// order identically through the spill path.
func TestSpillAggNullAndNaNKeys(t *testing.T) {
	tab := buildSpillTable(t, 3*vector.DefaultChunkSize)
	node := plan.Node(&plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(3, vector.Float64)},
		GroupNames: []string{"v"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Name: "si", Typ: vector.Int64},
		},
		Child: &plan.Scan{Table: tab},
	})
	want := runPlan(t, node, &Context{Parallelism: 1})
	for _, workers := range []int{1, 2, 8} {
		ctx, dir := spillCtx(t, workers, 1<<13)
		got := runPlan(t, node, ctx)
		assertTablesEqual(t, got, want, "agg null/nan keys")
		if !ctx.Spill.Spilled() {
			t.Fatal("expected spilling")
		}
		assertTempDirEmpty(t, dir)
	}
}

// TestSpillSortMatchesInMemory: external sort (runs spilled, merged
// from disk) must be byte-identical to the unlimited in-memory sort,
// including NaN/NULL keys, at workers 1/2/8, materialized and
// streamed.
func TestSpillSortMatchesInMemory(t *testing.T) {
	forceWideMerge(t)
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	for _, desc := range []bool{false, true} {
		node := plan.Node(&plan.Sort{
			Keys: []plan.SortKey{
				{Expr: colRef(3, vector.Float64), Desc: desc},
				{Expr: colRef(2, vector.Int32)},
			},
			Child: &plan.Scan{Table: tab},
		})
		want := runPlan(t, node, &Context{Parallelism: 1})
		for _, workers := range []int{1, 2, 8} {
			ctx, dir := spillCtx(t, workers, 1<<14)
			got := runPlan(t, node, ctx)
			assertTablesEqual(t, got, want, "sort spill")
			if ctx.Spill.Runs() == 0 {
				t.Fatalf("desc=%v workers=%d: no runs spilled", desc, workers)
			}
			assertTempDirEmpty(t, dir)

			// Streamed consumption must agree chunk by chunk too.
			ctx2, dir2 := spillCtx(t, workers, 1<<14)
			s, err := Stream(node, ctx2)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := s.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			assertTablesEqual(t, streamed, want, "sort spill streamed")
			assertTempDirEmpty(t, dir2)
		}
	}
}

// TestSortTopKBoundedBuffer: a small LIMIT must produce the exact
// serial prefix while keeping per-worker buffers bounded (exercised
// with and without a budget).
func TestSortTopKBoundedBuffer(t *testing.T) {
	forceWideMerge(t)
	tab := buildSpillTable(t, 6*vector.DefaultChunkSize)
	full := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(3, vector.Float64)}, {Expr: colRef(0, vector.Int64), Desc: true}},
		Child: &plan.Scan{Table: tab},
	})
	want := runPlan(t, full, &Context{Parallelism: 1})
	limited := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(3, vector.Float64)}, {Expr: colRef(0, vector.Int64), Desc: true}},
		Child: &plan.Scan{Table: tab},
		Limit: 23,
	})
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 1 << 14} {
			ctx := &Context{Parallelism: workers, MemoryBudget: budget, TempDir: t.TempDir()}
			got := runPlan(t, limited, ctx)
			if got.NumRows() != 23 {
				t.Fatalf("workers=%d budget=%d: %d rows, want 23", workers, budget, got.NumRows())
			}
			for r := 0; r < 23; r++ {
				if got.Cols[0].Int64s()[r] != want.Cols[0].Int64s()[r] {
					t.Fatalf("workers=%d budget=%d row %d: id %d, want %d",
						workers, budget, r, got.Cols[0].Int64s()[r], want.Cols[0].Int64s()[r])
				}
			}
		}
	}
}

// buildJoinTables creates a probe table and a build table whose keys
// overlap partially (multiple matches per key, NULL keys on both
// sides).
func buildJoinTables(t *testing.T, probeRows, buildRows int) (probe, build *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	p, err := cat.CreateTable("p", catalog.Schema{
		{Name: "pid", Type: vector.Int64},
		{Name: "pk", Type: vector.Int64},
		{Name: "pv", Type: vector.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	pid := make([]int64, probeRows)
	pk := vector.New(vector.Int64, probeRows)
	pv := make([]string, probeRows)
	for i := 0; i < probeRows; i++ {
		pid[i] = int64(i)
		if i%19 == 4 {
			pk.AppendValue(vector.Null())
		} else {
			pk.AppendValue(vector.NewInt64(int64((i * 7) % (buildRows * 2))))
		}
		pv[i] = "p" + string(rune('a'+i%26))
	}
	if err := p.Data.AppendChunk(vector.NewChunk(vector.FromInt64s(pid), pk, vector.FromStrings(pv))); err != nil {
		t.Fatal(err)
	}
	b, err := cat.CreateTable("b", catalog.Schema{
		{Name: "bk", Type: vector.Int64},
		{Name: "bv", Type: vector.Int64},
		{Name: "bs", Type: vector.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	bk := vector.New(vector.Int64, buildRows)
	bv := make([]int64, buildRows)
	bs := make([]string, buildRows)
	for i := 0; i < buildRows; i++ {
		if i%23 == 7 {
			bk.AppendValue(vector.Null())
		} else {
			bk.AppendValue(vector.NewInt64(int64(i % (buildRows * 3 / 4)))) // dup keys
		}
		bv[i] = int64(i)
		bs[i] = "b" + string(rune('a'+i%26))
	}
	if err := b.Data.AppendChunk(vector.NewChunk(bk, vector.FromInt64s(bv), vector.FromStrings(bs))); err != nil {
		t.Fatal(err)
	}
	return p, b
}

// TestSpillJoinMatchesInMemory: a grace-partitioned join (build side
// spilled, probe re-partitioned, output order restored by the tag
// sort) must be byte-identical to the in-memory join for inner and
// LEFT joins, with and without a residual ON conjunct, at workers
// 1/2/8.
func TestSpillJoinMatchesInMemory(t *testing.T) {
	probe, build := buildJoinTables(t, 3*vector.DefaultChunkSize, 2*vector.DefaultChunkSize)
	residual := &plan.BinOp{
		Op:   sql.OpGt,
		Left: &plan.ColRef{Idx: 4, Typ: vector.Int64}, // b.bv (combined schema)
		// Residual keeps roughly half the matches.
		Right: &plan.Const{Val: vector.NewInt64(int64(vector.DefaultChunkSize)), Typ: vector.Int64},
		Typ:   vector.Bool,
	}
	for _, kind := range []sql.JoinKind{sql.InnerJoin, sql.LeftJoin} {
		for _, withExtra := range []bool{false, true} {
			node := plan.Node(&plan.HashJoin{
				Kind:      kind,
				Left:      &plan.Scan{Table: probe},
				Right:     &plan.Scan{Table: build},
				LeftKeys:  []plan.Expr{colRef(1, vector.Int64)},
				RightKeys: []plan.Expr{colRef(0, vector.Int64)},
			})
			if withExtra {
				node.(*plan.HashJoin).Extra = residual
			}
			want := runPlan(t, node, &Context{Parallelism: 1})
			for _, workers := range []int{1, 2, 8} {
				for _, budget := range []int64{1 << 13, 1 << 16} { // 8KB forces recursion
					ctx, dir := spillCtx(t, workers, budget)
					got := runPlan(t, node, ctx)
					assertTablesEqual(t, got, want,
						fmt.Sprintf("join spill kind=%v extra=%v workers=%d budget=%d", kind, withExtra, workers, budget))
					if ctx.Spill.Partitions() == 0 {
						t.Fatalf("kind=%v extra=%v workers=%d budget=%d: no partitions spilled",
							kind, withExtra, workers, budget)
					}
					assertTempDirEmpty(t, dir)
				}
			}
		}
	}
}

// highBitJoin is a 128k-row build side joined by a 256k-row probe side
// (every build key twice) on one key column filled by key(i).
func highBitJoin(t testing.TB, key func(i int) vector.Value) *plan.HashJoin {
	t.Helper()
	const buildRows, probeRows = 128 << 10, 256 << 10
	cat := catalog.New()
	typ := key(0).Type()
	mk := func(name string, rows int) *plan.Scan {
		tab, err := cat.CreateTable(name, catalog.Schema{{Name: "k", Type: typ}, {Name: "v", Type: vector.Int64}})
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from < rows; from += vector.DefaultChunkSize {
			k, v := vector.New(typ, vector.DefaultChunkSize), make([]int64, vector.DefaultChunkSize)
			for r := range v {
				k.AppendValue(key((from + r) % buildRows))
				v[r] = int64(from + r)
			}
			if err := tab.Data.AppendChunk(vector.NewChunk(k, vector.FromInt64s(v))); err != nil {
				t.Fatal(err)
			}
		}
		return &plan.Scan{Table: tab}
	}
	return &plan.HashJoin{Kind: sql.InnerJoin, Left: mk("probe", probeRows), Right: mk("build", buildRows),
		LeftKeys: []plan.Expr{colRef(0, typ)}, RightKeys: []plan.Expr{colRef(0, typ)}}
}

// TestSpillJoinHighBitKeys: keys that differ only above bit 40 — whole-
// number doubles, integers shifted far left — have constant low hash
// bits, from which the join used to cut its level-0 partition: every row
// landed in one partition, which spilled and was re-partitioned, build
// side and deferred probe rows both written twice. Cut by partitionOf
// like every other level, such a join is byte-identical to the in-memory
// one, spills no more than level 0's sixteen partitions and writes what
// the same join on scrambled keys writes.
func TestSpillJoinHighBitKeys(t *testing.T) {
	scrambled := highBitJoin(t, func(i int) vector.Value { return vector.NewInt64(int64(i) * 7919) })
	for name, key := range map[string]func(i int) vector.Value{
		"whole doubles": func(i int) vector.Value { return vector.NewFloat64(float64(i)) },
		"i<<44":         func(i int) vector.Value { return vector.NewInt64(int64(i) << 44) },
	} {
		node := highBitJoin(t, key)
		want := runPlan(t, node, &Context{Parallelism: 1})
		for _, workers := range []int{1, 2, 8} {
			base, _ := spillCtx(t, workers, 512<<10)
			runPlan(t, scrambled, base)
			ctx, dir := spillCtx(t, workers, 512<<10)
			assertTablesEqual(t, runPlan(t, node, ctx), want, fmt.Sprintf("%s workers=%d", name, workers))
			assertTempDirEmpty(t, dir)
			parts, wrote, baseline := ctx.Spill.Partitions(), ctx.Spill.BytesWritten(), base.Spill.BytesWritten()
			t.Logf("%s workers=%d: %d partitions, %d bytes written (scrambled: %d)", name, workers, parts, wrote, baseline)
			if parts == 0 || parts > 16 || wrote*100 > baseline*105 {
				t.Errorf("%s workers=%d: %d partitions spilled, %d bytes written; scrambled keys: %d partitions, %d bytes",
					name, workers, parts, wrote, base.Spill.Partitions(), baseline)
			}
		}
	}
}

// TestSpillCleanupOnCancelAndError: temp files must vanish when a
// spilling query is cancelled mid-stream or dies on an execution
// error.
func TestSpillCleanupOnCancelAndError(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	sortNode := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(1, vector.Int64)}},
		Child: &plan.Scan{Table: tab},
	})

	// Cancel after the first chunk.
	dir := t.TempDir()
	ctx := &Context{Parallelism: 2, MemoryBudget: 1 << 14, TempDir: dir}
	s, err := Stream(sortNode, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	s.Next() // observe the cancellation
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertTempDirEmpty(t, dir)

	// Mid-query error: a sort key whose comparison fails (Blob) after
	// runs already spilled.
	blobTab := func() *catalog.Table {
		cat := catalog.New()
		tb, err := cat.CreateTable("b", catalog.Schema{
			{Name: "k", Type: vector.Int64},
			{Name: "x", Type: vector.Blob},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 3 * vector.DefaultChunkSize
		ks := make([]int64, n)
		bs := make([][]byte, n)
		for i := range ks {
			ks[i] = int64(i % 911)
			bs[i] = []byte{byte(i), byte(i >> 8)}
		}
		if err := tb.Data.AppendChunk(vector.NewChunk(vector.FromInt64s(ks), vector.FromBlobs(bs))); err != nil {
			t.Fatal(err)
		}
		return tb
	}()
	errNode := plan.Node(&plan.Sort{
		Keys:  []plan.SortKey{{Expr: colRef(1, vector.Blob)}},
		Child: &plan.Scan{Table: blobTab},
	})
	dir2 := t.TempDir()
	ctx2 := &Context{Parallelism: 1, MemoryBudget: 1 << 12, TempDir: dir2}
	s2, err := Stream(errNode, ctx2)
	if err == nil {
		_, nerr := s2.Next()
		if nerr == nil {
			t.Fatal("expected sort over Blob keys to error")
		}
		s2.Close()
	}
	assertTempDirEmpty(t, dir2)
}

// TestSpillDistinctMatchesInMemory: serial DISTINCT must produce the
// same rows in the same (first-appearance) order under a tiny budget,
// across key shapes (single int key, single string key, multi-column),
// and leave no temp files behind.
func TestSpillDistinctMatchesInMemory(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	cases := []struct {
		name   string
		proj   []int
		budget int64
	}{
		{"int-key", []int{1}, 1 << 12},         // hk
		{"str-key", []int{4}, 1 << 9},          // name (26 keys — needs a tiny budget)
		{"multi-col", []int{2, 3, 4}, 1 << 12}, // sk,v,name (incl. NULL/NaN)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node := plan.Node(&plan.Distinct{Child: &plan.Scan{Table: tab, Projection: tc.proj}})
			want := runPlan(t, node, &Context{Parallelism: 1})
			ctx, dir := spillCtx(t, 1, tc.budget)
			got := runPlan(t, node, ctx)
			assertTablesEqual(t, got, want, "distinct spill "+tc.name)
			if !ctx.Spill.Spilled() {
				t.Fatal("expected spilling")
			}
			if ctx.Spill.Partitions() == 0 {
				t.Fatal("no partitions recorded")
			}
			assertTempDirEmpty(t, dir)
		})
	}
}

// TestSpillDistinctStreamed: the spilled remainder must stream through
// ChunkStream (the server path) and still clean up its temp files on
// early Close.
func TestSpillDistinctStreamed(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	node := plan.Node(&plan.Distinct{Child: &plan.Scan{Table: tab, Projection: []int{1}}})
	ctx, dir := spillCtx(t, 1, 1<<12)
	s, err := Stream(node, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Pull a couple of chunks, then abandon mid-stream.
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertTempDirEmpty(t, dir)
}

// TestDistinctReturnsItsBudget: a DISTINCT closed after its first
// chunk, with its partitions spilled, gives back every tracked byte and
// empties its spill directory at its own Close, not when the query is
// torn down — fed by a child operator at one worker and by the morsel
// pipeline at two.
func TestDistinctReturnsItsBudget(t *testing.T) {
	tab := buildSpillTable(t, 64*vector.DefaultChunkSize)
	scan := &plan.Scan{Table: tab, Projection: []int{1}}
	child, err := Build(scan)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := buildWith(&plan.Distinct{Child: scan}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if piped.(*aggOp).in.pipe == nil {
		t.Fatal("DISTINCT over a scan is not fed by the morsel pipeline")
	}
	for _, c := range []struct {
		name    string
		workers int
		op      Operator
	}{
		{"child-fed", 1, &aggOp{spec: groupByAll(scan, plan.ExecHints{}), in: chunkFeed{child: child}}},
		{"pipe-fed", 2, piped},
	} {
		ctx, _ := spillCtx(t, c.workers, 1<<20)
		ctx.mem = newMemTracker(ctx.MemoryBudget)
		ctx.spillMgr = spill.NewManager(ctx.TempDir, ctx.Spill)
		if err := c.op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if ch, err := c.op.Next(); err != nil || ch == nil {
			t.Fatalf("%s: no first chunk (err %v)", c.name, err)
		}
		if ctx.Spill.Partitions() == 0 || ctx.mem.used.Load() == 0 || ctx.spillMgr.Dir() == "" {
			t.Fatalf("%s: nothing held: %d partitions spilled, %d bytes tracked, spill dir %q",
				c.name, ctx.Spill.Partitions(), ctx.mem.used.Load(), ctx.spillMgr.Dir())
		}
		if err := c.op.Close(); err != nil {
			t.Fatal(err)
		}
		if used := ctx.mem.used.Load(); used != 0 {
			t.Errorf("%s: %d bytes still tracked after Close", c.name, used)
		}
		assertTempDirEmpty(t, ctx.spillMgr.Dir())
		ctx.spillMgr.Close()
	}
}

// TestSpillDistinctAggSplitsOneGroup pins what a DISTINCT aggregate
// over a set ten times the budget costs: the dedup table is partitioned
// by the (group, value) pair, so even a single group spreads over every
// partition and re-partitioning makes progress. The pairs go to disk
// twice — routed once, and once more as merged runs that do not fit
// either — so at most 3x the raw pair rows are written (a set kept
// whole per group and partitioned by the group was rewritten once per
// level: 11x here), and tracked memory, sampled at every spill
// decision, stays within the budget's slack (a table doubles when it
// grows, each worker's at its own time: under 3x) instead of ending
// with the whole set, 10x, in memory. One global group, then ten of
// skewed sizes.
func TestSpillDistinctAggSplitsOneGroup(t *testing.T) {
	const rows = 200_000
	tab, err := catalog.New().CreateTable("d", catalog.Schema{{Name: "g", Type: vector.Int64}, {Name: "x", Type: vector.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	gs, xs := make([]int64, rows), make([]int64, rows)
	for i := range xs {
		gs[i] = int64(min(bits.TrailingZeros(uint(i+1)), 9)) // group k holds about 2^-(k+1) of the rows
		xs[i] = int64(i) * 7919
	}
	if err := tab.Data.AppendChunk(vector.NewChunk(vector.FromInt64s(gs), vector.FromInt64s(xs))); err != nil {
		t.Fatal(err)
	}
	for _, grouped := range []bool{false, true} {
		node := &plan.Aggregate{
			Aggs:  []plan.AggSpec{{Kind: plan.AggCount, Arg: colRef(1, vector.Int64), Distinct: true, Name: "d", Typ: vector.Int64}},
			Child: &plan.Scan{Table: tab},
		}
		rowBytes := int64(16) // value, position
		if grouped {
			node.GroupBy, node.GroupNames = []plan.Expr{colRef(0, vector.Int64)}, []string{"g"}
			rowBytes += 8
		}
		want := runPlan(t, node, &Context{Parallelism: 1})
		budget := tableBytes(t, node, tab) / 10
		for _, workers := range []int{1, 2} {
			ctx, dir := spillCtx(t, workers, budget)
			var peakSeen atomic.Int64
			ctx.mem = newMemTracker(budget)
			ctx.mem.live = func() int64 {
				for u, p := ctx.mem.used.Load(), peakSeen.Load(); u > p && !peakSeen.CompareAndSwap(p, u); p = peakSeen.Load() {
				}
				return budget
			}
			assertTablesEqual(t, runPlan(t, node, ctx), want, "count(DISTINCT) over a set 10x the budget")
			assertTempDirEmpty(t, dir)
			written, peak := ctx.Spill.BytesWritten(), peakSeen.Load()
			t.Logf("grouped=%v workers=%d budget=%d: wrote %d bytes (%.1fx the pair rows), peak tracked %d (%.2fx the budget)",
				grouped, workers, budget, written, float64(written)/float64(rowBytes*rows), peak, float64(peak)/float64(budget))
			if written == 0 || written > 3*rowBytes*rows {
				t.Fatalf("grouped=%v workers=%d: wrote %d spill bytes, want (0, %d]", grouped, workers, written, 3*rowBytes*rows)
			}
			if peak > 3*budget {
				t.Fatalf("grouped=%v workers=%d: peak tracked memory %d under a budget of %d", grouped, workers, peak, budget)
			}
		}
	}
}
