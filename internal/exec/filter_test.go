package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Columns of the kernel test chunks, in order; the last is each row's
// ordinal, which identifies the rows a filter keeps.
const (
	fcI32 = iota
	fcI64
	fcF64
	fcStr
	fcRow
)

var filterColTypes = []vector.Type{vector.Int32, vector.Int64, vector.Float64, vector.String}

var compareOps = []sql.BinaryOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

// filterChunkOf generates n rows of INTEGER, BIGINT, DOUBLE and VARCHAR
// columns drawn from small pools of edge values: NULLs, NaN, ±Inf,
// -0.0, BIGINT values above 2^53 and INTEGER extremes.
func filterChunkOf(rng *rand.Rand, n int) *vector.Chunk {
	i32s := []int32{0, 1, -1, 3, 40, math.MaxInt32, math.MinInt32}
	i64s := []int64{0, 1, -1, 39, 40, 41, 2048, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	f64s := []float64{0, math.Copysign(0, -1), 0.5, 39.5, 40, 40.5, 2048, 9007199254740992, math.Inf(1), math.Inf(-1), math.NaN()}
	strs := []string{"", "a", "ab", "b", "c00", "c01", "\xff"}
	cols := make([]*vector.Vector, len(filterColTypes)+1)
	for c, t := range filterColTypes {
		v := vector.New(t, n)
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				v.AppendValue(vector.Null())
				continue
			}
			switch t {
			case vector.Int32:
				v.AppendValue(vector.NewInt32(i32s[rng.Intn(len(i32s))]))
			case vector.Int64:
				v.AppendValue(vector.NewInt64(i64s[rng.Intn(len(i64s))]))
			case vector.Float64:
				v.AppendValue(vector.NewFloat64(f64s[rng.Intn(len(f64s))]))
			default:
				v.AppendValue(vector.NewString(strs[rng.Intn(len(strs))]))
			}
		}
		cols[c] = v
	}
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = int64(i)
	}
	cols[fcRow] = vector.FromInt64s(rows)
	return vector.NewChunk(cols...)
}

// randomConst draws a constant for a comparison with column c:
// numeric of any width against the numeric columns (cross-type pairs
// such as BIGINT < 40.5 or INTEGER < 3000000000 included), a string
// against VARCHAR, and now and then NULL.
func randomConst(rng *rand.Rand, c int) *plan.Const {
	if rng.Intn(20) == 0 {
		return &plan.Const{Val: vector.Null(), Typ: filterColTypes[c]}
	}
	var v vector.Value
	if c == fcStr {
		v = vector.NewString([]string{"", "a", "ab", "b", "c00", "zz"}[rng.Intn(6)])
	} else {
		switch rng.Intn(3) {
		case 0:
			v = vector.NewInt32([]int32{0, 3, 40, -1, math.MaxInt32}[rng.Intn(5)])
		case 1:
			v = vector.NewInt64([]int64{40, 2048, 3000000000, 1<<53 + 1, math.MinInt64}[rng.Intn(5)])
		default:
			v = vector.NewFloat64([]float64{40.5, 2048, math.Copysign(0, -1), math.NaN(), math.Inf(1), 9007199254740993}[rng.Intn(6)])
		}
	}
	return &plan.Const{Val: v, Typ: v.Type()}
}

// randomConjunct is a kernel-shaped comparison in either operand order
// or, one time in four, a residual: modular arithmetic, IS NOT NULL or
// an OR.
func randomConjunct(rng *rand.Rand) plan.Expr {
	c := rng.Intn(len(filterColTypes))
	col := colRef(c, filterColTypes[c])
	switch rng.Intn(8) {
	case 0:
		mod := &plan.BinOp{Op: sql.OpMod, Left: colRef(fcRow, vector.Int64), Right: &plan.Const{Val: vector.NewInt64(7), Typ: vector.Int64}, Typ: vector.Int64}
		return &plan.BinOp{Op: sql.OpEq, Left: mod, Right: &plan.Const{Val: vector.NewInt64(0), Typ: vector.Int64}, Typ: vector.Bool}
	case 1:
		return &plan.IsNull{Operand: col, Negate: true}
	}
	op := compareOps[rng.Intn(len(compareOps))]
	k := randomConst(rng, c)
	cmp := &plan.BinOp{Op: op, Left: col, Right: k, Typ: vector.Bool}
	if rng.Intn(2) == 0 {
		cmp.Left, cmp.Right = k, col
	}
	if rng.Intn(8) == 0 {
		return &plan.BinOp{Op: sql.OpOr, Left: cmp, Right: randomConjunct(rng), Typ: vector.Bool}
	}
	return cmp
}

// referenceRows runs the oracle and returns the ordinals it keeps.
func referenceRows(pred plan.Expr, ch *vector.Chunk) ([]int, error) {
	var buf []int
	out, err := filterChunk(pred, ch, &buf)
	if err != nil || out == nil {
		return nil, err
	}
	rows := make([]int, out.NumRows())
	for i, r := range out.Col(out.NumCols() - 1).Int64s() {
		rows[i] = int(r)
	}
	return rows, nil
}

// checkAgainstReference compares Where's selection of ch with the
// oracle's, row for row, errors included; and zone maps of ch's columns
// may refute the kernels only where the oracle keeps no row.
func checkAgainstReference(t *testing.T, pred plan.Expr, ch *vector.Chunk) {
	t.Helper()
	want, werr := referenceRows(pred, ch)
	w := CompileWhere(pred)
	zones := make([]storage.ZoneMap, ch.NumCols())
	for i, v := range ch.Cols() {
		c, err := storage.SealColumn(v, storage.EncRaw)
		if err != nil {
			t.Fatal(err)
		}
		zones[i] = c.Zone
	}
	if len(want) > 0 && w.Refutes(zones, nil) {
		t.Fatalf("%s over %d rows: zone maps refute a segment the reference keeps %d rows of", plan.ExprString(pred), ch.NumRows(), len(want))
	}
	got, gerr := w.Select(ch, nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s over %d rows: error %v, reference %v", plan.ExprString(pred), ch.NumRows(), gerr, werr)
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s over %d rows: kept %d rows, reference %d\n got %v\nwant %v", plan.ExprString(pred), ch.NumRows(), len(got), len(want), head(got), head(want))
	}
	checkSegments(t, pred, ch)
}

// segVariant is a chunk's rows stored as segments in one of the forms
// a scan meets.
type segVariant struct {
	name string
	ch   *vector.Chunk // the rows the segments hold
	segs [][]*storage.SealedColumn
}

// segmentVariants stores ch's rows as sealed raw columns; through a
// column store, as the mutable tail below a segment's worth of rows and
// in the store's own encodings from there; and, with its NULLs replaced
// (only NULL-free columns compress), with every integer column in FOR,
// then in RLE, and VARCHAR in dict.
func segmentVariants(t testing.TB, ch *vector.Chunk) []segVariant {
	seal := func(v *vector.Vector, enc storage.Encoding) *storage.SealedColumn {
		c, err := storage.SealColumn(v, enc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	raw := make([]*storage.SealedColumn, ch.NumCols())
	types := make([]vector.Type, ch.NumCols())
	for i, v := range ch.Cols() {
		raw[i], types[i] = seal(v, storage.EncRaw), v.Type()
	}
	store := storage.NewColumnStore(types)
	if err := store.AppendChunk(ch); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot()
	var stored [][]*storage.SealedColumn
	for i := range snap.NumSegments() {
		stored = append(stored, snap.SegmentColumns(i, nil, nil))
	}
	out := []segVariant{{"raw", ch, [][]*storage.SealedColumn{raw}}, {"store", ch, stored}}
	if ch.NumRows() == 0 {
		return out
	}
	dense := withoutNulls(ch)
	for _, intEnc := range []storage.Encoding{storage.EncFOR, storage.EncRLE} {
		cols := make([]*storage.SealedColumn, ch.NumCols())
		for i, v := range dense.Cols() {
			enc := storage.EncRaw
			switch v.Type() {
			case vector.Int32, vector.Int64:
				enc = intEnc
			case vector.String:
				enc = storage.EncDict
			}
			cols[i] = seal(v, enc)
		}
		out = append(out, segVariant{intEnc.String() + "+dict", dense, [][]*storage.SealedColumn{cols}})
	}
	return out
}

// withoutNulls returns ch with each NULL replaced by the value above it
// in its column (the type's zero value at the top).
func withoutNulls(ch *vector.Chunk) *vector.Chunk {
	cols := make([]*vector.Vector, ch.NumCols())
	for c, v := range ch.Cols() {
		out := vector.New(v.Type(), v.Len())
		prev := map[vector.Type]vector.Value{vector.Int32: vector.NewInt32(0), vector.Int64: vector.NewInt64(0),
			vector.Float64: vector.NewFloat64(0), vector.String: vector.NewString(""), vector.Bool: vector.NewBool(false)}[v.Type()]
		for i := range v.Len() {
			if x := v.Get(i); !x.IsNull() {
				prev = x
			}
			out.AppendValue(prev)
		}
		cols[c] = out
	}
	return vector.NewChunk(cols...)
}

// checkSegments holds Where.scanSegment over every variant of ch to the
// whole-predicate oracle over the variant's rows: the same error, and
// the same rows, decoded from the emitted columns value for value. The
// last column must hold each row's ordinal: the emitted selection must
// name the rows the emitted columns hold. Odd variants scan into
// buffers they own nothing of, as the morsel exchange does.
func checkSegments(t *testing.T, pred plan.Expr, ch *vector.Chunk) {
	t.Helper()
	w := CompileWhere(pred)
	for vi, v := range segmentVariants(t, ch) {
		var buf []int
		want, werr := filterChunk(pred, v.ch, &buf)
		got, gerr := scanSegments(w, v.segs, vi%2 == 1)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s over %d %s rows: error %v, reference %v", plan.ExprString(pred), v.ch.NumRows(), v.name, gerr, werr)
		}
		if werr == nil && !sameChunk(got, want) {
			t.Fatalf("%s over %d %s rows: segment scan kept %v, reference %v", plan.ExprString(pred), v.ch.NumRows(), v.name, chunkRows(got), chunkRows(want))
		}
	}
}

// scanSegments runs w over each segment in turn and appends what it
// emits; nil when nothing survives.
func scanSegments(w *Where, segs [][]*storage.SealedColumn, own bool) (*vector.Chunk, error) {
	sc := SegmentScratch{own: own}
	var out []*vector.Vector
	base := int64(0)
	for _, cols := range segs {
		sel, emitted, err := w.scanSegment(cols, &sc, true)
		if err != nil {
			return nil, err
		}
		if emitted != nil {
			if ids := emitted[len(emitted)-1].Int64s(); len(ids) != len(sel) || len(sel) > 0 && ids[0] != base+int64(sel[0]) || ids[len(ids)-1] != base+int64(sel[len(sel)-1]) {
				return nil, fmt.Errorf("selection %v does not name the emitted rows %v", head(sel), ids[:min(len(ids), 20)])
			}
			if out == nil {
				for _, v := range emitted {
					out = append(out, vector.New(v.Type(), 0))
				}
			}
			for i, v := range emitted {
				out[i].AppendVector(v)
			}
		}
		base += int64(cols[0].Rows)
	}
	if out == nil {
		return nil, nil
	}
	return vector.NewChunk(out...), nil
}

// sameChunk compares two chunks value for value, DOUBLEs by their bits.
func sameChunk(a, b *vector.Chunk) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for c := range a.NumCols() {
		x, y := a.Col(c), b.Col(c)
		if x.Type() != y.Type() {
			return false
		}
		for i := range x.Len() {
			u, v := x.Get(i), y.Get(i)
			switch {
			case u.IsNull() || v.IsNull():
				if u.IsNull() != v.IsNull() {
					return false
				}
			case x.Type() == vector.Float64:
				if math.Float64bits(u.Float64()) != math.Float64bits(v.Float64()) {
					return false
				}
			case !u.Equal(v):
				return false
			}
		}
	}
	return true
}

// chunkRows is the first ordinals (last column) a chunk holds.
func chunkRows(ch *vector.Chunk) []int64 {
	if ch == nil {
		return nil
	}
	ids := ch.Col(ch.NumCols() - 1).Int64s()
	return ids[:min(len(ids), 20)]
}

func head(s []int) []int { return s[:min(len(s), 20)] }

// TestFilterKernelsMatchReference: over seeded chunks of every kernel
// column type, conjunct chains mixing kernels (every operator, either
// operand order, cross-type constants, NaN and NULL constants) with
// residuals select exactly the rows the whole-predicate oracle keeps.
func TestFilterKernelsMatchReference(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 2048, 1 + rng.Intn(300)} {
			ch := filterChunkOf(rng, n)
			pred := randomConjunct(rng)
			for k := rng.Intn(3); k > 0; k-- {
				pred = &plan.BinOp{Op: sql.OpAnd, Left: pred, Right: randomConjunct(rng), Typ: vector.Bool}
			}
			checkAgainstReference(t, pred, ch)
			cases++
		}
	}
	// Every operator against every column with the bench's shapes and
	// the edge constants, alone and in both orders.
	rng := rand.New(rand.NewSource(99))
	ch := filterChunkOf(rng, 2048)
	consts := []vector.Value{vector.NewInt64(40), vector.NewFloat64(40.5), vector.NewInt64(3000000000),
		vector.NewFloat64(math.NaN()), vector.NewFloat64(math.Copysign(0, -1)), vector.NewString("ab")}
	for c, typ := range filterColTypes {
		for _, v := range consts {
			if (typ == vector.String) != (v.Type() == vector.String) {
				continue
			}
			for _, op := range compareOps {
				k := &plan.Const{Val: v, Typ: v.Type()}
				checkAgainstReference(t, &plan.BinOp{Op: op, Left: colRef(c, typ), Right: k, Typ: vector.Bool}, ch)
				checkAgainstReference(t, &plan.BinOp{Op: op, Left: k, Right: colRef(c, typ), Typ: vector.Bool}, ch)
				cases += 2
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestFilterKernelSplit: the conjuncts that run as kernels and the
// residual are the ones EXPLAIN names.
func TestFilterKernelSplit(t *testing.T) {
	lo := &plan.ColRef{Idx: 1, Typ: vector.Int64, Name: "lo"}
	c40 := &plan.Const{Val: vector.NewInt64(40), Typ: vector.Int64}
	mod := &plan.BinOp{Op: sql.OpMod, Left: lo, Right: &plan.Const{Val: vector.NewInt64(7), Typ: vector.Int64}, Typ: vector.Int64}
	pred := &plan.BinOp{Op: sql.OpAnd, Typ: vector.Bool,
		Left:  &plan.BinOp{Op: sql.OpGt, Left: c40, Right: lo, Typ: vector.Bool},
		Right: &plan.BinOp{Op: sql.OpEq, Left: mod, Right: &plan.Const{Val: vector.Null(), Typ: vector.Int64}, Typ: vector.Bool}}
	w := CompileWhere(pred)
	if len(w.kernels) != 1 || len(w.residual) != 1 || w.kernels[0].Col != 1 || w.kernels[0].Op != sql.OpLt || w.kernels[0].Val.Int64() != 40 {
		t.Fatalf("split %+v / %d residual", w.kernels, len(w.residual))
	}
	if w := CompileWhere(nil); len(w.kernels)+len(w.residual) != 0 {
		t.Fatal("a nil predicate compiled to conjuncts")
	}
}

// TestWhereRefutesZones: a filter's kernels refute a segment only where
// its zone maps prove no row passes them — at a bound, one past it, on
// an all-NULL column — and never without statistics, on a column a
// projection maps elsewhere, or for <>, which a NaN row passes unseen.
func TestWhereRefutesZones(t *testing.T) {
	zone := func(min, max vector.Value) []storage.ZoneMap {
		return []storage.ZoneMap{{Min: min, Max: max, Rows: 2}}
	}
	ints := func(min, max int64) []storage.ZoneMap { return zone(vector.NewInt64(min), vector.NewInt64(max)) }
	i64, str := vector.NewInt64, vector.NewString
	cases := []struct {
		name  string
		zones []storage.ZoneMap
		op    sql.BinaryOp
		val   vector.Value
		want  bool
	}{
		{"eq-below", ints(10, 20), sql.OpEq, i64(5), true},
		{"eq-above", ints(10, 20), sql.OpEq, i64(25), true},
		{"eq-inside", ints(10, 20), sql.OpEq, i64(15), false},
		{"lt-at-min", ints(10, 20), sql.OpLt, i64(10), true},
		{"lt-above-min", ints(10, 20), sql.OpLt, i64(11), false},
		{"le-below-min", ints(10, 20), sql.OpLe, i64(9), true},
		{"le-at-min", ints(10, 20), sql.OpLe, i64(10), false},
		{"gt-at-max", ints(10, 20), sql.OpGt, i64(20), true},
		{"gt-below-max", ints(10, 20), sql.OpGt, i64(19), false},
		{"ge-above-max", ints(10, 20), sql.OpGe, i64(21), true},
		{"ge-at-max", ints(10, 20), sql.OpGe, i64(20), false},
		{"double-constant", ints(10, 20), sql.OpGt, vector.NewFloat64(20.5), true},
		{"ne-single-value", ints(7, 7), sql.OpNe, i64(7), false},
		{"ne-all-null", []storage.ZoneMap{{Rows: 4, NullCount: 4}}, sql.OpNe, i64(0), false},
		{"no-zones", nil, sql.OpEq, i64(5), false},
		{"no-stats", []storage.ZoneMap{{}}, sql.OpEq, i64(5), false},
		{"all-null", []storage.ZoneMap{{Rows: 4, NullCount: 4}}, sql.OpGe, i64(0), true},
		{"bool-all-false", zone(vector.NewBool(false), vector.NewBool(false)), sql.OpEq, vector.NewBool(true), true},
		{"bool-both", zone(vector.NewBool(false), vector.NewBool(true)), sql.OpEq, vector.NewBool(true), false},
		{"bool-gt-true", zone(vector.NewBool(false), vector.NewBool(true)), sql.OpGt, vector.NewBool(true), true},
		{"varchar-below", zone(str("b"), str("d")), sql.OpLt, str("b"), true},
		{"varchar-prefix", zone(str("b"), str("d")), sql.OpEq, str("bb"), false},
		{"varchar-above", zone(str("b"), str("d")), sql.OpGe, str("da"), true},
		{"varchar-int-bound", zone(str("b"), str("d")), sql.OpEq, i64(5), false},
	}
	for _, c := range cases {
		w := &Where{kernels: []plan.ScanPredicate{{Col: 0, Op: c.op, Val: c.val}}}
		if got := w.Refutes(c.zones, nil); got != c.want {
			t.Errorf("%s: refutes = %v, want %v", c.name, got, c.want)
		}
		if len(c.zones) == 0 {
			continue
		}
		// Through the projection [1], the kernel's column is table
		// column 1: the zone decides there, and nowhere else.
		if got := w.Refutes(append([]storage.ZoneMap{{}}, c.zones...), []int{1}); got != c.want {
			t.Errorf("%s: refutes through the projection = %v, want %v", c.name, got, c.want)
		}
		if w.Refutes(append(slices.Clone(c.zones), storage.ZoneMap{}), []int{1}) {
			t.Errorf("%s: refuted on a column the projection does not read", c.name)
		}
	}
}

// TestFilterKernelKeepsResidualErrors: a residual is evaluated over
// the whole chunk, or every row of its columns in a segment, so its
// error on a row the kernel rejects surfaces, whether the kernel keeps
// the other row or no row at all.
func TestFilterKernelKeepsResidualErrors(t *testing.T) {
	ch := vector.NewChunk(vector.FromInt64s([]int64{1, 2}), vector.FromStrings([]string{"x", "2"}))
	for _, bound := range []int64{1, 5} {
		pred := &plan.BinOp{Op: sql.OpAnd, Typ: vector.Bool,
			Left:  &plan.BinOp{Op: sql.OpGt, Left: colRef(0, vector.Int64), Right: &plan.Const{Val: vector.NewInt64(bound), Typ: vector.Int64}, Typ: vector.Bool},
			Right: &plan.BinOp{Op: sql.OpGt, Left: &plan.Cast{Operand: colRef(1, vector.String), To: vector.Int64}, Right: &plan.Const{Val: vector.NewInt64(0), Typ: vector.Int64}, Typ: vector.Bool}}
		if _, err := CompileWhere(pred).Select(ch, nil); err == nil {
			t.Fatalf("id > %d: CAST('x' AS BIGINT) in the residual did not fail", bound)
		}
		checkSegments(t, pred, ch) // the oracle fails too: so must every segment scan
	}
}

// FuzzFilterKernel: one kernel conjunct over a column built from the
// fuzzer's bytes selects what the oracle keeps, for any column type
// (BOOLEAN too), operator, operand order and constant, and the column's
// zone map refutes it only where the oracle keeps nothing.
func FuzzFilterKernel(f *testing.F) {
	le := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	nan, negZero := math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1))
	f.Add(byte(0), byte(2), byte(1), false, le(40, 39, 41, 1<<31), uint64(40))
	f.Add(byte(1), byte(5), byte(2), true, le(1<<53+1, 1<<53, math.MaxInt64), math.Float64bits(9007199254740992))
	f.Add(byte(2), byte(1), byte(2), false, le(nan, negZero, 0, math.Float64bits(math.Inf(-1))), nan)
	f.Add(byte(2), byte(0), byte(1), true, le(negZero, 0), uint64(0))
	f.Add(byte(3), byte(3), byte(3), false, []byte("a\x00ab\x00\x00b"), uint64('a'))
	f.Add(byte(0), byte(4), byte(1), false, le(math.MaxUint64), uint64(3000000000))
	f.Add(byte(4), byte(4), byte(0), false, le(0, 2, 4), uint64(1))
	f.Add(byte(4), byte(0), byte(0), true, le(1, 3, 5), uint64(0))
	colTypes := append(slices.Clone(filterColTypes), vector.Bool)
	f.Fuzz(func(t *testing.T, typ, op, ctyp byte, flip bool, data []byte, cbits uint64) {
		ct := colTypes[int(typ)%len(colTypes)]
		col := vector.New(ct, 0)
		if ct == vector.String {
			for i, s := range splitBytes(data) {
				if i%5 == 4 {
					col.AppendValue(vector.Null())
				} else {
					col.AppendValue(vector.NewString(s))
				}
			}
		} else {
			for i := 0; i+8 <= len(data); i += 8 {
				bits := binary.LittleEndian.Uint64(data[i:])
				switch {
				case bits%7 == 3:
					col.AppendValue(vector.Null())
				case ct == vector.Bool:
					col.AppendValue(vector.NewBool(bits&1 == 1))
				case ct == vector.Int32:
					col.AppendValue(vector.NewInt32(int32(bits)))
				case ct == vector.Int64:
					col.AppendValue(vector.NewInt64(int64(bits)))
				default:
					col.AppendValue(vector.NewFloat64(math.Float64frombits(bits)))
				}
			}
		}
		var v vector.Value
		switch {
		case ct == vector.String:
			v = vector.NewString(fmt.Sprint(cbits % 300))
		case ct == vector.Bool:
			v = vector.NewBool(cbits&1 == 1)
		case ctyp%3 == 0:
			v = vector.NewInt32(int32(cbits))
		case ctyp%3 == 1:
			v = vector.NewInt64(int64(cbits))
		default:
			v = vector.NewFloat64(math.Float64frombits(cbits))
		}
		rows := make([]int64, col.Len())
		for i := range rows {
			rows[i] = int64(i)
		}
		ch := vector.NewChunk(col, vector.FromInt64s(rows))
		k := &plan.Const{Val: v, Typ: v.Type()}
		cmp := &plan.BinOp{Op: compareOps[int(op)%len(compareOps)], Left: colRef(0, ct), Right: k, Typ: vector.Bool}
		if flip {
			cmp.Left, cmp.Right = k, cmp.Left
		}
		checkAgainstReference(t, cmp, ch)
	})
}

// splitBytes cuts data at zero bytes into strings.
func splitBytes(data []byte) []string {
	var out []string
	start := 0
	for i, b := range data {
		if b == 0 {
			out = append(out, string(data[start:i]))
			start = i + 1
		}
	}
	return append(out, string(data[start:]))
}

// TestScanSegmentOwnsWhatItEmits: a scan whose output outlives its next
// segment (the morsel exchange) hands on a column its residual decoded
// whole into a buffer when every row survives, and gives the buffer up:
// the next segment's decode must not write into the emitted rows.
func TestScanSegmentOwnsWhatItEmits(t *testing.T) {
	seg := func(from int64) []*storage.SealedColumn {
		vals := make([]int64, 100)
		for i := range vals {
			vals[i] = from + int64(i)
		}
		c, err := storage.SealColumn(vector.FromInt64s(vals), storage.EncFOR)
		if err != nil {
			t.Fatal(err)
		}
		return []*storage.SealedColumn{c}
	}
	w := CompileWhere(&plan.IsNull{Operand: colRef(0, vector.Int64), Negate: true})
	sc := SegmentScratch{own: true}
	_, first, err := w.scanSegment(seg(0), &sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.scanSegment(seg(1000), &sc, true); err != nil {
		t.Fatal(err)
	}
	for i, x := range first[0].Int64s() {
		if x != int64(i) {
			t.Fatalf("row %d of the first segment reads %d after the second was scanned", i, x)
		}
	}
}
