package exec

// The hash join this package ran before joinTable — a map from
// appendRowKey bytes to build rows, probed a row at a time — kept as the
// byte-for-byte oracle of the columnar one.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// appendRowKey appends a type-tagged binary encoding of row i of v to
// key. The encoding is injective per type, so it can key a map.
func appendRowKey(key []byte, v *vector.Vector, i int) []byte {
	if v.IsNull(i) {
		return append(key, 0xFF)
	}
	switch v.Type() {
	case vector.Bool:
		if v.Bools()[i] {
			return append(key, 1, 1)
		}
		return append(key, 1, 0)
	case vector.Int32:
		key = append(key, 2)
		return binary.LittleEndian.AppendUint32(key, uint32(v.Int32s()[i]))
	case vector.Int64:
		key = append(key, 3)
		return binary.LittleEndian.AppendUint64(key, uint64(v.Int64s()[i]))
	case vector.Float64:
		key = append(key, 4)
		return binary.LittleEndian.AppendUint64(key, math.Float64bits(v.Float64s()[i]))
	case vector.String:
		s := v.Strings()[i]
		key = append(key, 5)
		key = binary.LittleEndian.AppendUint32(key, uint32(len(s)))
		return append(key, s...)
	case vector.Blob:
		b := v.Blobs()[i]
		key = append(key, 6)
		key = binary.LittleEndian.AppendUint32(key, uint32(len(b)))
		return append(key, b...)
	}
	return append(key, 0xFE)
}

// refJoinKeys evaluates one side's keys as the old join did, plus the
// one thing it got wrong: a key whose pair has another numeric type is
// compared by value, so each cell is cast (a boxed value at a time) to
// the wider type before it is encoded.
func refJoinKeys(t testing.TB, mine, theirs []plan.Expr, ch *vector.Chunk) []*vector.Vector {
	t.Helper()
	keys := make([]*vector.Vector, len(mine))
	for i, e := range mine {
		v, err := plan.Evaluate(e, ch)
		if err != nil {
			t.Fatal(err)
		}
		if wide, ok := vector.CommonNumeric(e.Type(), theirs[i].Type()); ok && wide != v.Type() {
			cast := vector.New(wide, v.Len())
			for r := 0; r < v.Len(); r++ {
				c, err := v.Get(r).Cast(wide)
				if err != nil {
					t.Fatal(err)
				}
				cast.AppendValue(c)
			}
			v = cast
		}
		keys[i] = v
	}
	return keys
}

// refRowKey is row r's map key, false when a key cell is NULL.
func refRowKey(key []byte, keys []*vector.Vector, r int) ([]byte, bool) {
	key = key[:0]
	for _, kv := range keys {
		if kv.IsNull(r) {
			return key, false // NULL keys never match
		}
		key = appendRowKey(key, kv, r)
	}
	return key, true
}

// refChunks drains a plan serially, chunk boundaries kept: the in-memory
// join emits per probe chunk.
func refChunks(t testing.TB, node plan.Node) []*vector.Chunk {
	t.Helper()
	s, err := Stream(node, &Context{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []*vector.Chunk
	for {
		ch, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			return out
		}
		out = append(out, ch)
	}
}

// referenceJoin runs spec the old way and returns the rows in the old
// in-memory emission order: per probe chunk the matched rows, then the
// key-unmatched padding, then the residual-rejected padding.
func referenceJoin(t testing.TB, spec *plan.HashJoin) []*vector.Vector {
	t.Helper()
	schema := spec.Schema()
	out := make([]*vector.Vector, len(schema))
	for i, c := range schema {
		out[i] = vector.New(c.Type, 0)
	}
	nl := len(spec.Left.Schema())
	build := make([]*vector.Vector, len(schema)-nl)
	for i := range build {
		build[i] = vector.New(schema[nl+i].Type, 0)
	}
	for _, ch := range refChunks(t, spec.Right) {
		for i := range build {
			build[i].AppendVector(ch.Col(i))
		}
	}
	right := vector.NewChunk(build...)
	buildIdx := make(map[string][]int)
	var key []byte
	rkeys := refJoinKeys(t, spec.RightKeys, spec.LeftKeys, right)
	for r := 0; r < right.NumRows(); r++ {
		var ok bool
		if key, ok = refRowKey(key, rkeys, r); ok {
			buildIdx[string(key)] = append(buildIdx[string(key)], r)
		}
	}
	for _, ch := range refChunks(t, spec.Left) {
		lkeys := refJoinKeys(t, spec.LeftKeys, spec.RightKeys, ch)
		var leftSel, rightSel, unmatched []int
		for r := 0; r < ch.NumRows(); r++ {
			matched := false
			var ok bool
			if key, ok = refRowKey(key, lkeys, r); ok {
				for _, m := range buildIdx[string(key)] {
					leftSel, rightSel = append(leftSel, r), append(rightSel, m)
					matched = true
				}
			}
			if !matched && spec.Kind == sql.LeftJoin {
				unmatched = append(unmatched, r)
			}
		}
		joined := vector.NewChunk(append(ch.Gather(leftSel).Cols(), right.Gather(rightSel).Cols()...)...)
		if spec.Extra != nil && joined.NumRows() > 0 {
			pred, err := plan.Evaluate(spec.Extra, joined)
			if err != nil {
				t.Fatal(err)
			}
			var sel []int
			keep := make(map[int]bool) // left rows that survived the residual
			for i := 0; i < joined.NumRows(); i++ {
				if !pred.IsNull(i) && pred.Bools()[i] {
					sel = append(sel, i)
					keep[leftSel[i]] = true
				}
			}
			if spec.Kind == sql.LeftJoin {
				seen := make(map[int]bool)
				for _, l := range leftSel {
					if !seen[l] && !keep[l] {
						unmatched = append(unmatched, l)
					}
					seen[l] = true
				}
			}
			joined = joined.Gather(sel)
		}
		for i, c := range joined.Cols() {
			out[i].AppendVector(c)
		}
		for i, c := range ch.Gather(unmatched).Cols() {
			out[i].AppendVector(c)
		}
		for _, c := range out[nl:] {
			for range unmatched {
				c.AppendValue(vector.Null())
			}
		}
	}
	return out
}

// refKeyPairs are the ON clauses of the reference cases, as (left
// column, right column) of the exact table: every key type alone, pairs
// of different numeric types both ways round, two and three columns, and
// none (the cross product).
var refKeyPairs = [][][2]int{
	{{exI32, exI32}}, {{exI64, exI64}}, {{exHi, exHi}}, {{exBool, exBool}}, {{exStr, exStr}}, {{exBlob, exBlob}},
	{{exF, exF}}, {{exF2, exF2}},
	{{exI32, exI64}}, {{exI64, exI32}}, {{exI32, exF}}, {{exF, exI64}},
	{{exI64, exI32}, {exStr, exStr}}, {{exF2, exF2}, {exBool, exBool}}, {{exI32, exF}, {exBlob, exBlob}},
	{{exI32, exI32}, {exStr, exStr}, {exF, exF}}, {{exHi, exHi}, {exI64, exI32}, {exBool, exBool}},
	{},
}

// refJoinCase builds one seeded case: both sides project the key
// columns and the nearly unique hi column off their own exact table.
func refJoinCase(t testing.TB, pairs [][2]int, kind sql.JoinKind, residual bool, lrows, rrows int, seed int64) *plan.HashJoin {
	t.Helper()
	lproj, rproj := []int{exHi}, []int{exHi}
	spec := &plan.HashJoin{Kind: kind}
	for _, p := range pairs {
		lproj, rproj = append(lproj, p[0]), append(rproj, p[1])
		spec.LeftKeys = append(spec.LeftKeys, colRef(len(lproj)-1, exSchema[p[0]].Type))
		spec.RightKeys = append(spec.RightKeys, colRef(len(rproj)-1, exSchema[p[1]].Type))
	}
	spec.Left = &plan.Scan{Table: buildExactTable(t, lrows, seed), Projection: lproj}
	spec.Right = &plan.Scan{Table: buildExactTable(t, rrows, seed+7919), Projection: rproj}
	if residual { // l.hi % 3 <> r.hi % 3, NULL when either hi is
		mod3 := func(idx int) plan.Expr {
			return &plan.BinOp{Op: sql.OpMod, Left: colRef(idx, vector.Int64), Right: &plan.Const{Val: vector.NewInt64(3), Typ: vector.Int64}, Typ: vector.Int64}
		}
		spec.Extra = &plan.BinOp{Op: sql.OpNe, Left: mod3(0), Right: mod3(len(lproj)), Typ: vector.Bool}
	}
	return spec
}

// TestJoinMatchesReference: the columnar join — in memory, hybrid,
// fully spilled and re-partitioned, at every worker count — emits the
// reference's bytes, and in chunks of at most vector.DefaultChunkSize
// rows (countOp fails the query otherwise), also where one probe row
// has more matches than that.
func TestJoinMatchesReference(t *testing.T) {
	cases := 0
	for pi, pairs := range refKeyPairs {
		for _, kind := range []sql.JoinKind{sql.InnerJoin, sql.LeftJoin} {
			for _, residual := range []bool{false, true} {
				for shape := 0; shape < 4; shape++ {
					if shape == 3 && pi > 0 {
						continue // the fan-out shape has keys of its own
					}
					// Probe sides span chunks; the output stays in the tens of
					// thousands of rows whatever the key's cardinality.
					lrows, rrows := vector.DefaultChunkSize+900, 40
					switch {
					case shape == 3:
						lrows, rrows = 40, vector.DefaultChunkSize+300 // one key value: a probe row's matches cross chunk boundaries
					case len(pairs) == 0:
						lrows, rrows = 700, 25
					case pairs[0][0] == exHi && shape == 0:
						lrows, rrows = 2*vector.DefaultChunkSize+100, 3000 // a build side that must recurse at 4 KB
					case shape == 1:
						lrows, rrows = 300, 600 // duplicate-heavy build side, larger than the probe side
					case shape == 2 && (pi+int(kind))%3 == 0:
						rrows = 0
					case shape == 2 && (pi+int(kind))%3 == 1:
						lrows = 0
					}
					cases++
					spec := refJoinCase(t, pairs, kind, residual, lrows, rrows, int64(cases))
					if shape == 3 { // ON l.hi % 1 = r.hi % 1: every probe row with a hi meets every build row with one
						one := func() []plan.Expr {
							return []plan.Expr{&plan.BinOp{Op: sql.OpMod, Left: colRef(0, vector.Int64), Right: &plan.Const{Val: vector.NewInt64(1), Typ: vector.Int64}, Typ: vector.Int64}}
						}
						spec.LeftKeys, spec.RightKeys = one(), one()
					}
					if cases%2 == 0 {
						spec.Hints.FanoutLog2 = 8
					}
					want := referenceJoin(t, spec)
					for _, workers := range []int{1, 2, 3, 8} {
						for _, budget := range []int64{0, 64 << 10, 4 << 10} {
							label := fmt.Sprintf("on=%v shape=%d kind=%v residual=%v rows=%dx%d workers=%d budget=%d", pairs, shape, kind, residual, lrows, rrows, workers, budget)
							ctx, dir := spillCtx(t, workers, budget)
							assertSameBytes(t, label, runPlan(t, spec, ctx).Cols, want)
							assertTempDirEmpty(t, dir)
							if budget == 4<<10 && rrows == 3000 && spec.Hints.FanoutLog2 == 0 && ctx.prof.Partitions() <= 16 {
								t.Fatalf("%s: %d partitions, none below level 0", label, ctx.prof.Partitions())
							}
						}
					}
					if kind == sql.InnerJoin && len(pairs) > 0 && shape == 1 { // the planner's build-side swap
						swapped := &plan.HashJoin{Kind: kind, Left: spec.Right, Right: spec.Left, LeftKeys: spec.RightKeys, RightKeys: spec.LeftKeys}
						want := referenceJoin(t, swapped)
						for _, budget := range []int64{0, 4 << 10} {
							ctx, _ := spillCtx(t, 3, budget)
							assertSameBytes(t, fmt.Sprintf("swapped on=%v budget=%d", pairs, budget), runPlan(t, swapped, ctx).Cols, want)
						}
					}
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestJoinKeyTyping: key pairs of different numeric types meet in the
// wider one, in one column or beside others, and nowhere else does a
// value of one type equal a value of another.
func TestJoinKeyTyping(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, schema catalog.Schema, cols ...*vector.Vector) *plan.Scan {
		tab, err := cat.CreateTable(name, schema)
		if err == nil {
			err = tab.Data.AppendChunk(vector.NewChunk(cols...))
		}
		if err != nil {
			t.Fatal(err)
		}
		return &plan.Scan{Table: tab}
	}
	a := mk("a", catalog.Schema{{Name: "i", Type: vector.Int32}, {Name: "s", Type: vector.String}},
		vector.FromInt32s([]int32{1, 2, 3, 0}), vector.FromStrings([]string{"x", "y", "z", "w"}))
	b := mk("b", catalog.Schema{{Name: "j", Type: vector.Int64}, {Name: "s", Type: vector.String}, {Name: "e", Type: vector.Float64}},
		vector.FromInt64s([]int64{1, 2, 3, 1 << 32}), vector.FromStrings([]string{"x", "y", "q", "w"}),
		vector.FromFloat64s([]float64{math.Copysign(0, -1), 1, 2, math.NaN()}))
	ai, as := colRef(0, vector.Int32), colRef(1, vector.String)
	bj, bs, be := colRef(0, vector.Int64), colRef(1, vector.String), colRef(2, vector.Float64)
	for _, c := range []struct {
		name        string
		left, right []plan.Expr
		want        int
	}{
		{"i = j", []plan.Expr{ai}, []plan.Expr{bj}, 3},
		{"i = j AND s = s", []plan.Expr{ai, as}, []plan.Expr{bj, bs}, 2},
		{"s = s AND i = j", []plan.Expr{as, ai}, []plan.Expr{bs, bj}, 2},
		{"i = e", []plan.Expr{ai}, []plan.Expr{be}, 2}, // 1 and 2; integer 0 is +0, which is not the DOUBLE column's -0
		{"i = e AND s = s", []plan.Expr{ai, as}, []plan.Expr{be, bs}, 0},
		{"s = j", []plan.Expr{as}, []plan.Expr{bj}, 0}, // no common type: nothing matches
		{"i = NULL", []plan.Expr{ai}, []plan.Expr{&plan.Const{Val: vector.Null(), Typ: vector.Int32}}, 0},
	} {
		for _, swap := range []bool{false, true} {
			spec := &plan.HashJoin{Kind: sql.InnerJoin, Left: a, Right: b, LeftKeys: c.left, RightKeys: c.right}
			if swap {
				spec = &plan.HashJoin{Kind: sql.InnerJoin, Left: b, Right: a, LeftKeys: c.right, RightKeys: c.left}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				for _, budget := range []int64{0, 64} {
					ctx, _ := spillCtx(t, workers, budget)
					if got := runPlan(t, spec, ctx).NumRows(); got != c.want {
						t.Fatalf("ON %s (swapped=%v, workers=%d, budget=%d): %d rows, want %d", c.name, swap, workers, budget, got, c.want)
					}
				}
			}
		}
	}
}

// TestJoinBudgetTracksHeap: what a join table charges to the memory
// budget must be what it retains beyond its build rows. A 64k-key table
// is built twice — the second time with the heap measured around it —
// and the tracked bytes must be within [0.8, 1.5]x of the heap's growth.
func TestJoinBudgetTracksHeap(t *testing.T) {
	const keys = 64 << 10
	ks, vs := make([]int64, keys), make([]float64, keys)
	for r := range ks {
		ks[r], vs[r] = int64(r)*7919, float64(r)
	}
	build := vector.NewChunk(vector.FromInt64s(ks), vector.FromFloat64s(vs))
	spec := &plan.HashJoin{LeftKeys: []plan.Expr{colRef(0, vector.Int64)}, RightKeys: []plan.Expr{colRef(0, vector.Int64)}}
	table := func() *joinTable {
		jt, err := newJoinTable(spec, joinKeyTypes(spec), build, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return jt
	}
	table() // warm up: size classes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jt := table()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if jt.gi.n != keys {
		t.Fatalf("%d keys, want %d", jt.gi.n, keys)
	}
	if ratio := float64(jt.size()) / float64(heap); ratio < 0.8 || ratio > 1.5 {
		t.Fatalf("tracked %d bytes, heap grew %d: ratio %.2f outside [0.8, 1.5]", jt.size(), heap, ratio)
	}
	t.Logf("tracked %d bytes, heap grew %d (%.0f bytes per key)", jt.size(), heap, float64(heap)/keys)
}

// TestJoinReturnsItsBudget: in memory, hybrid and fully spilled, a
// closed join holds none of the query's budget and none of its disk.
func TestJoinReturnsItsBudget(t *testing.T) {
	probe, build := buildJoinTables(t, 3*vector.DefaultChunkSize, 2*vector.DefaultChunkSize)
	spec := &plan.HashJoin{Kind: sql.LeftJoin, Left: &plan.Scan{Table: probe}, Right: &plan.Scan{Table: build},
		LeftKeys: []plan.Expr{colRef(1, vector.Int64)}, RightKeys: []plan.Expr{colRef(0, vector.Int64)}}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, budget := range []int64{1 << 30, 64 << 10, 4 << 10} {
			ctx, dir := spillCtx(t, workers, budget)
			ctx.mem = newMemTracker(budget)
			s, err := Stream(spec, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Materialize(); err != nil {
				t.Fatal(err)
			}
			if budget < 1<<30 && ctx.prof.Partitions() == 0 {
				t.Fatalf("workers=%d budget=%d: nothing spilled", workers, budget)
			}
			if budget == 1<<30 && ctx.mem.used.Load() == 0 {
				t.Fatalf("workers=%d: an open in-memory join holds nothing", workers)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if used := ctx.mem.used.Load(); used != 0 {
				t.Fatalf("workers=%d budget=%d: %d bytes still tracked after close", workers, budget, used)
			}
			assertTempDirEmpty(t, dir)
		}
	}

	// Nor does a spilled join that never finishes: cancelled while its
	// build side drains into the partitions, cancelled while its probe
	// side does, or failed there by its residual, its router blocks,
	// resident rows and tables and run builders are back at Close. (A
	// pipelined side's workers run at most 2x8 morsels ahead of the join:
	// by a filter's 40th call the join has taken 24 chunks of that side.)
	probe, build = buildJoinTables(t, 48*vector.DefaultChunkSize, 48*vector.DefaultChunkSize)
	for _, workers := range []int{1, 2, 8} {
		for _, c := range []struct {
			name     string
			cancelAt [2]int64 // the call of the probe side's, the build side's filter that cancels; 0 never
			residual plan.Expr
		}{
			{name: "cancelled mid-build", cancelAt: [2]int64{0, 40}},
			{name: "cancelled mid-probe", cancelAt: [2]int64{40, 0}},
			{name: "failing residual", residual: &plan.BinOp{Op: sql.OpGt, Typ: vector.Bool, // CAST('pa' AS INTEGER) fails
				Left: &plan.Cast{Operand: colRef(2, vector.String), To: vector.Int32}, Right: &plan.Const{Val: vector.NewInt32(0), Typ: vector.Int32}}},
		} {
			qctx, cancel := context.WithCancel(context.Background())
			side := func(tab *catalog.Table, at int64) plan.Node {
				var calls atomic.Int64
				fn := &core.ScalarFunc{Name: "cancel_at", Arity: 1, Parallel: true, Eval: func(args []*vector.Vector) (*vector.Vector, error) {
					if calls.Add(1) == at {
						cancel()
					}
					return vector.Constant(vector.NewBool(true), args[0].Len(), vector.Bool), nil
				}}
				return &plan.Filter{Pred: &plan.Call{Fn: fn, Args: []plan.Expr{colRef(0, vector.Int64)}, Typ: vector.Bool}, Child: &plan.Scan{Table: tab}}
			}
			op, err := buildWith(&plan.HashJoin{Kind: sql.LeftJoin, Left: side(probe, c.cancelAt[0]), Right: side(build, c.cancelAt[1]), Extra: c.residual,
				LeftKeys: []plan.Expr{colRef(1, vector.Int64)}, RightKeys: []plan.Expr{colRef(0, vector.Int64)}}, workers, &Profile{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, dir := spillCtx(t, workers, 64<<10)
			ctx.Ctx, ctx.mem, ctx.spillMgr = qctx, newMemTracker(ctx.MemoryBudget), spill.NewManager(dir, ctx.prof)
			err = op.Open(ctx)
			for ch := (*vector.Chunk)(nil); err == nil; {
				if ch, err = op.Next(); ch == nil && err == nil {
					t.Fatalf("%s workers=%d: ran to completion", c.name, workers)
				}
			}
			if errors.Is(err, ErrCancelled) != (c.residual == nil) {
				t.Fatalf("%s workers=%d: err = %v", c.name, workers, err)
			}
			if ctx.prof.BytesWritten() == 0 {
				t.Fatalf("%s workers=%d: stopped before anything spilled", c.name, workers)
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			if used := ctx.mem.used.Load(); used != 0 {
				t.Errorf("%s workers=%d: %d bytes still tracked after Close", c.name, workers, used)
			}
			if files, _ := os.ReadDir(ctx.spillMgr.Dir()); len(files) != 0 {
				t.Errorf("%s workers=%d: %d spill files left by the closed join", c.name, workers, len(files))
			}
			if err := ctx.spillMgr.Close(); err != nil {
				t.Fatal(err)
			}
			assertTempDirEmpty(t, dir)
		}
	}
}

// fuzzJoin is the join FuzzJoinSpillChunk spills: a BIGINT + VARCHAR key
// over build rows [k, s, v DOUBLE, seq] and probe rows [k, s, posKey].
func fuzzJoin(t testing.TB) (js *joinSpill, build, probe []*vector.Vector) {
	spec := &plan.HashJoin{Kind: sql.LeftJoin,
		Left:      &plan.Material{Schem: catalog.Schema{{Name: "k", Type: vector.Int64}, {Name: "s", Type: vector.String}}},
		Right:     &plan.Material{Schem: catalog.Schema{{Name: "k", Type: vector.Int64}, {Name: "s", Type: vector.String}, {Name: "v", Type: vector.Float64}}},
		LeftKeys:  []plan.Expr{colRef(0, vector.Int64), colRef(1, vector.String)},
		RightKeys: []plan.Expr{colRef(0, vector.Int64), colRef(1, vector.String)},
		Extra:     &plan.BinOp{Op: sql.OpGt, Left: colRef(4, vector.Float64), Right: &plan.Const{Val: vector.NewFloat64(2), Typ: vector.Float64}, Typ: vector.Bool},
	}
	ctx := &Context{Parallelism: 1, mem: newMemTracker(1 << 30), spillMgr: spill.NewManager(t.TempDir(), nil)}
	t.Cleanup(func() { ctx.spillMgr.Close() })
	js = newJoinSpill(ctx, spec, joinKeyTypes(spec), &nodeStats{})
	const n = 64
	k, s, v := make([]int64, n), make([]string, n), vector.New(vector.Float64, n)
	for r := range k {
		k[r], s[r] = int64(r%9), string(rune('a'+r%3))
		if r%7 == 0 {
			v.AppendValue(vector.Null())
		} else {
			v.AppendValue(vector.NewFloat64(float64(r % 5)))
		}
	}
	build = []*vector.Vector{vector.FromInt64s(k), vector.FromStrings(s), v, vector.FromInt64s(morselPos(nil, 0, n))}
	probe = []*vector.Vector{vector.FromInt64s(k), vector.FromStrings(s), vector.FromInt64s(morselPos(nil, 1, n))}
	return js, build, probe
}

// FuzzJoinSpillChunk feeds the spilled join build and deferred-probe
// chunks it did not just write. Whatever decodes into columns must
// either be rejected with errCorruptSpill or join without a panic.
func FuzzJoinSpillChunk(f *testing.F) {
	_, build, probe := fuzzJoin(f)
	for side, cols := range [][]*vector.Vector{build, probe} {
		good := encodeSpillChunk(f, cols)
		f.Add(byte(side), good)
		f.Add(byte(1-side), good)             // the other side's layout
		f.Add(byte(side), good[:len(good)/2]) // truncated
		flipped := bytes.Clone(good)
		flipped[len(flipped)-3] ^= 0xFF // the tag column
		f.Add(byte(side), flipped)
	}
	f.Fuzz(func(t *testing.T, side byte, data []byte) {
		cols := decodeSpillChunk(data)
		if cols == nil {
			return
		}
		js, build, probe := fuzzJoin(t)
		// The layouts are the plan's, the join's own rows are of them,
		// and the build phase ends with every partition of level 0
		// resident.
		nb := len(build) - 1
		if err := js.addBuildChunk(vector.NewChunk(build[:nb]...)); err != nil {
			t.Fatal(err)
		}
		for stream, cols := range [][]*vector.Vector{build, probe} {
			if err := checkSpilled(cols, js.layout.types[stream], js.layout.nullable[stream]); err != nil {
				t.Fatal(err)
			}
		}
		if err := js.top.finishBuild(); err != nil {
			t.Fatal(err)
		}
		if side%2 == 0 {
			build = cols
		} else {
			probe = cols
		}
		// A spilled partition of a level-1 pass holds the chunks: the
		// engine's reload is what reads them back.
		up := js.newPass(js.top.g.sub())
		pt := &up.g.parts[0]
		pt.spilled = true
		for stream, cols := range [2][]*vector.Vector{buildRows: build, probeRows: probe} {
			if err := up.g.write(&pt.streams[stream], cols); err != nil {
				t.Fatal(err)
			}
		}
		defer up.g.abandon()
		ps := &probeState{sorter: newRunBuilder(js.ctx, joinSortKeys(js.outCols), 0, "join-out", &nodeStats{})}
		err := js.joinSpilled(up, 0, ps)
		if err != nil && !errors.Is(err, errCorruptSpill) {
			t.Fatalf("untyped error: %v", err)
		}
		m, merr := finishBuilders(js.ctx, -1, []*runBuilder{ps.sorter})
		if merr != nil {
			t.Fatal(merr)
		}
		defer m.close()
		for ch, err := m.next(js.ctx); ch != nil || err != nil; ch, err = m.next(js.ctx) {
			if err != nil {
				t.Fatalf("rows that passed the layout check do not emit: %v", err)
			}
		}
	})
}
