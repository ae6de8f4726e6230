package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vexdb/internal/vector"
)

// decodeCase is one sealed column and the values it holds.
type decodeCase struct {
	name string
	col  *SealedColumn
	want *vector.Vector
}

// decodeCases returns a rows-long column for every decoder: FOR at each
// delta width into INTEGER and BIGINT (INTEGER at width 4 spans its
// whole domain, and at width 8 stores 32-bit values in 8-byte deltas),
// RLE into both, and dict with one- and two-byte codes.
func decodeCases(rng *rand.Rand, rows int) []decodeCase {
	var out []decodeCase
	for _, typ := range []vector.Type{vector.Int32, vector.Int64} {
		for _, width := range []int{0, 1, 2, 4, 8} {
			vals := make([]int64, rows)
			for i := range vals {
				switch {
				case width == 0:
					vals[i] = -7
				case width == 8 && typ == vector.Int64:
					vals[i] = int64(rng.Uint64())
				case width == 8 || width == 4 && typ == vector.Int32:
					vals[i] = int64(int32(rng.Uint32()))
				default:
					vals[i] = -300 + rng.Int63n(1<<(8*width))
				}
			}
			v := intVector(typ, vals)
			base := slices.Min(vals)
			out = append(out, decodeCase{fmt.Sprintf("for%d/%s", width, typ), loadedColumn(EncFOR, typ, rows, ZoneMap{}, nil, encodeFOR(v, base, width)), v})
		}
		vals := make([]int64, 0, rows)
		for len(vals) < rows {
			x, n := int64(rng.Uint64()), 1+rng.Intn(40)
			if typ == vector.Int32 {
				x = int64(int32(x))
			}
			for ; n > 0 && len(vals) < rows; n-- {
				vals = append(vals, x)
			}
		}
		v := intVector(typ, vals)
		_, _, runs := intShape(v)
		out = append(out, decodeCase{"rle/" + typ.String(), loadedColumn(EncRLE, typ, rows, ZoneMap{}, nil, encodeRLE(v, runs)), v})
	}
	for _, entries := range []int{40, 300} {
		strs := make([]string, rows)
		for i := range strs {
			strs[i] = fmt.Sprintf("s%03d", rng.Intn(entries))
		}
		v := vector.FromStrings(strs)
		out = append(out, decodeCase{fmt.Sprintf("dict%d", entries), loadedColumn(EncDict, vector.String, rows, ZoneMap{}, nil, encodeDict(v)), v})
	}
	return out
}

func intVector(typ vector.Type, vals []int64) *vector.Vector {
	if typ == vector.Int64 {
		return vector.FromInt64s(vals)
	}
	i32 := make([]int32, len(vals))
	for i, x := range vals {
		i32[i] = int32(x)
	}
	return vector.FromInt32s(i32)
}

// randomSel returns an ascending selection of about frac of rows.
func randomSel(rng *rand.Rand, rows int, frac float64) []int {
	sel := []int{}
	for r := range rows {
		if rng.Float64() < frac {
			sel = append(sel, r)
		}
	}
	return sel
}

// sameVector compares two vectors value for value.
func sameVector(a, b *vector.Vector) bool {
	if a.Type() != b.Type() || a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !a.Get(i).Equal(b.Get(i)) {
			return false
		}
	}
	return true
}

// TestDecodeSelMatchesGather: every decoder, whole and at selections
// from none to all rows, into fresh storage and into a reused dirty
// buffer, gives the rows the encoder was given.
func TestDecodeSelMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{1, 37, SegmentRows} {
		for _, c := range decodeCases(rng, rows) {
			whole, err := c.col.Decode(nil)
			if err != nil || !sameVector(whole, c.want) {
				t.Fatalf("%s: whole decode %v (err %v)", c.name, whole, err)
			}
			dirty := vector.New(c.want.Type(), rows)
			dirty.AppendVector(c.want)
			for _, frac := range []float64{0, 0.05, 0.5, 1} {
				sel := randomSel(rng, rows, frac)
				want := c.want.Gather(sel)
				for _, dst := range []*vector.Vector{nil, dirty} {
					got, err := c.col.DecodeSel(dst, sel)
					if err != nil || !sameVector(got, want) {
						t.Fatalf("%s: DecodeSel of %d/%d rows (reused %v): err %v", c.name, len(sel), rows, dst != nil, err)
					}
				}
			}
		}
	}
}

// inInterval is KeepInts' test on a decoded value.
func inInterval(typ vector.Type, v vector.Value, lo int64, span uint64) bool {
	if typ == vector.Int32 {
		return uint32(v.Int64())-uint32(lo) <= uint32(span)
	}
	return uint64(v.Int64())-uint64(lo) <= span
}

// TestCodeKernelsMatchDecode: KeepInts over FOR and RLE codes and
// KeepStrings over dict codes keep exactly the rows whose decoded value
// passes, for intervals that hold nothing, everything, wrap round the
// domain, or start at a delta width's edges.
func TestCodeKernelsMatchDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rows := range []int{1, 300, SegmentRows} {
		for _, c := range decodeCases(rng, rows) {
			sel := randomSel(rng, rows, 0.7)
			if c.col.Typ == vector.String {
				for _, bound := range []string{"", "s000", "s020", "s150", "z"} {
					got, ok, err := c.col.KeepStrings(slices.Clone(sel), func(s string) bool { return s < bound })
					if err != nil || !ok {
						t.Fatalf("%s: %v %v", c.name, ok, err)
					}
					var want []int
					for _, r := range sel {
						if c.want.Strings()[r] < bound {
							want = append(want, r)
						}
					}
					if !slices.Equal(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("%s: < %q kept %d rows, want %d", c.name, bound, len(got), len(want))
					}
				}
				continue
			}
			var base int64
			if c.want.Type() == vector.Int32 {
				base = int64(slices.Min(c.want.Int32s()))
			} else {
				base = slices.Min(c.want.Int64s())
			}
			domain := uint64(math.MaxUint64)
			if c.want.Type() == vector.Int32 {
				domain = math.MaxUint32
			}
			x := c.want.Get(rng.Intn(rows)).Int64()
			type iv struct {
				lo   int64
				span uint64
			}
			for _, in := range []iv{{x, 0}, {x, 1000}, {x + 1, domain - 1}, {math.MinInt64, domain}, {base, 0}, {base + 1, 254},
				{base + 256, 1}, {base - 5, 3}, {base - 5, 10}, {x, domain / 2}, {int64(rng.Uint64()), rng.Uint64() & domain}} {
				got, ok, err := c.col.KeepInts(slices.Clone(sel), in.lo, in.span)
				if err != nil || !ok {
					t.Fatalf("%s: %v %v", c.name, ok, err)
				}
				var want []int
				for _, r := range sel {
					if inInterval(c.want.Type(), c.want.Get(r), in.lo, in.span) {
						want = append(want, r)
					}
				}
				if !slices.Equal(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("%s: lo %d span %d kept %d rows, want %d", c.name, in.lo, in.span, len(got), len(want))
				}
			}
		}
	}
	raw := rawColumn(vector.FromInt64s([]int64{1, 2}))
	if _, ok, _ := raw.KeepInts([]int{0, 1}, 0, 5); ok {
		t.Fatal("KeepInts claimed a raw column")
	}
}

// TestDictParsedOnce: a dict column splits its dictionary and checks its
// codes once, not per scan.
func TestDictParsedOnce(t *testing.T) {
	c := decodeCases(rand.New(rand.NewSource(3)), SegmentRows)
	dict := c[len(c)-1].col
	if _, err := dict.Decode(nil); err != nil {
		t.Fatal(err)
	}
	buf := vector.New(vector.String, SegmentRows)
	if allocs := testing.AllocsPerRun(20, func() { _, _ = dict.DecodeSel(buf, nil) }); allocs > 1 {
		t.Fatalf("a parsed dict column's decode made %.0f allocations", allocs)
	}
}

// FuzzSealedColumn: arbitrary FOR, RLE and dict payloads, typed as any
// integer or string column, through the whole decode, the selective
// decode and both code kernels. Each fails with ErrCorruptColumn or not
// at all, never panics, and allocates in proportion to its input; a
// payload that decodes gives DecodeSel(sel) = Decode().Gather(sel), and
// kernels that keep the rows their decoded values pass.
func FuzzSealedColumn(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range decodeCases(rng, 9) {
		f.Add(byte(c.col.Enc), byte(c.col.Typ), uint16(c.col.Rows), c.col.payload, int64(3), uint64(1<<40), int64(5))
		f.Add(byte(c.col.Enc), byte(c.col.Typ), uint16(c.col.Rows+1), c.col.payload[:len(c.col.payload)-1], int64(-1), uint64(7), int64(6))
	}
	f.Fuzz(func(t *testing.T, enc, typ byte, rows uint16, payload []byte, lo int64, span uint64, seed int64) {
		e := Encoding(1 + enc%3)
		vt := []vector.Type{vector.Int32, vector.Int64, vector.String}[typ%3]
		n := int(rows) % (SegmentRows + 1)
		c := loadedColumn(e, vt, n, ZoneMap{}, nil, payload)
		if vt == vector.Int32 {
			span &= math.MaxUint32
		}
		sel := randomSel(rand.New(rand.NewSource(seed)), n, 0.3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		whole, err := c.Decode(nil)
		part, perr := c.DecodeSel(nil, sel)
		kept, iok, ierr := c.KeepInts(slices.Clone(sel), lo, span)
		matched, sok, serr := c.KeepStrings(slices.Clone(sel), func(s string) bool { return len(s)%2 == int(lo&1) })
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(payload))+64*uint64(n)+64<<10 {
			t.Fatalf("%d payload bytes of %d rows allocated %d", len(payload), n, grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptColumn) {
				t.Fatalf("untyped error %v", err)
			}
			for _, e := range []error{perr, ierr, serr} {
				if e != nil && !errors.Is(e, ErrCorruptColumn) {
					t.Fatalf("untyped error %v", e)
				}
			}
			return
		}
		if perr != nil || ierr != nil || serr != nil || whole.Len() != n {
			t.Fatalf("decoded %d of %d rows, then %v / %v / %v", whole.Len(), n, perr, ierr, serr)
		}
		if !sameVector(part, whole.Gather(sel)) {
			t.Fatal("DecodeSel differs from the whole decode's rows")
		}
		if iok {
			var want []int
			for _, r := range sel {
				if inInterval(vt, whole.Get(r), lo, span) {
					want = append(want, r)
				}
			}
			if !slices.Equal(kept, want) && len(kept)+len(want) > 0 {
				t.Fatalf("KeepInts kept %v, decoded values pass %v", kept, want)
			}
		}
		if sok {
			var want []int
			for _, r := range sel {
				if len(whole.Strings()[r])%2 == int(lo&1) {
					want = append(want, r)
				}
			}
			if !slices.Equal(matched, want) && len(matched)+len(want) > 0 {
				t.Fatalf("KeepStrings kept %v, decoded values pass %v", matched, want)
			}
		}
	})
}

// BenchmarkDecode: each decoder into a reused buffer, at every row and
// at a 5% selection, one 2048-row segment per op, in ns/value.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range decodeCases(rng, SegmentRows) {
		for _, frac := range []float64{1, 0.05} {
			var sel []int
			if frac < 1 {
				sel = randomSel(rng, SegmentRows, frac)
			}
			b.Run(fmt.Sprintf("%s/sel=%g", c.name, frac), func(b *testing.B) {
				buf, err := c.col.DecodeSel(nil, sel)
				if err != nil {
					b.Fatal(err)
				}
				values := buf.Len()
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if buf, err = c.col.DecodeSel(buf, sel); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*values), "ns/value")
			})
		}
	}
}
