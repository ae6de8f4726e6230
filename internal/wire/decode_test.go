package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/engine"
	"vexdb/internal/vector"
)

var allTypes = []vector.Type{vector.Bool, vector.Int32, vector.Int64, vector.Float64, vector.String, vector.Blob}

var (
	specialInt64s   = []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -5}
	specialInt32s   = []int32{0, -1, math.MinInt32, math.MaxInt32}
	specialFloats   = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, -1.5e-300, 1e21, 123456.789}
	specialStrings  = []string{"", "a", "tab\there", "new\nline", `back\slash`, `\N`, `\`, `\t literal`, "ünïcode", strings.Repeat("x", 300)}
	specialBlobLens = []int{0, 1, 3, 40}
)

// randomChunk builds rows rows of the given types. A nullFrac share of
// the fields are NULL with a zero payload underneath, as the decoders
// leave them; the rest mix the special values above with random ones.
func randomChunk(rng *rand.Rand, types []vector.Type, rows int, nullFrac float64) *vector.Chunk {
	cols := zeroColumns(types, rows)
	for c, col := range cols {
		for r := 0; r < rows; r++ {
			if rng.Float64() < nullFrac {
				col.SetNull(r)
				continue
			}
			special := rng.Intn(3) == 0
			switch types[c] {
			case vector.Bool:
				col.Bools()[r] = rng.Intn(2) == 1
			case vector.Int32:
				if special {
					col.Int32s()[r] = specialInt32s[rng.Intn(len(specialInt32s))]
				} else {
					col.Int32s()[r] = int32(rng.Uint32())
				}
			case vector.Int64:
				if special {
					col.Int64s()[r] = specialInt64s[rng.Intn(len(specialInt64s))]
				} else {
					col.Int64s()[r] = int64(rng.Uint64())
				}
			case vector.Float64:
				if special {
					col.Float64s()[r] = specialFloats[rng.Intn(len(specialFloats))]
				} else {
					col.Float64s()[r] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			case vector.String:
				if special {
					col.Strings()[r] = specialStrings[rng.Intn(len(specialStrings))]
				} else {
					col.Strings()[r] = fmt.Sprintf("v%d", rng.Intn(1000))
				}
			case vector.Blob:
				b := make([]byte, specialBlobLens[rng.Intn(len(specialBlobLens))])
				rng.Read(b)
				col.Blobs()[r] = b
			}
		}
	}
	return vector.NewChunk(cols...)
}

// diffVectors describes the first difference between a and b, or
// returns "". Floats compare by bit pattern. With exactNil, a null mask
// and an empty blob must match in nil-ness too.
func diffVectors(a, b *vector.Vector, exactNil bool) string {
	if a.Type() != b.Type() || a.Len() != b.Len() {
		return fmt.Sprintf("%v×%d vs %v×%d", a.Type(), a.Len(), b.Type(), b.Len())
	}
	if exactNil && (a.Nulls() == nil) != (b.Nulls() == nil) {
		return fmt.Sprintf("null mask %v vs %v", a.Nulls() != nil, b.Nulls() != nil)
	}
	for r := 0; r < a.Len(); r++ {
		if a.IsNull(r) != b.IsNull(r) {
			return fmt.Sprintf("row %d: null %v vs %v", r, a.IsNull(r), b.IsNull(r))
		}
		same := true
		switch a.Type() {
		case vector.Bool:
			same = a.Bools()[r] == b.Bools()[r]
		case vector.Int32:
			same = a.Int32s()[r] == b.Int32s()[r]
		case vector.Int64:
			same = a.Int64s()[r] == b.Int64s()[r]
		case vector.Float64:
			same = math.Float64bits(a.Float64s()[r]) == math.Float64bits(b.Float64s()[r])
		case vector.String:
			same = a.Strings()[r] == b.Strings()[r]
		case vector.Blob:
			x, y := a.Blobs()[r], b.Blobs()[r]
			same = bytes.Equal(x, y) && (!exactNil || (x == nil) == (y == nil))
		}
		if !same {
			return fmt.Sprintf("row %d: %v vs %v", r, a.Get(r), b.Get(r))
		}
	}
	return ""
}

func diffChunks(a, b *vector.Chunk, exactNil bool) string {
	if a.NumCols() != b.NumCols() {
		return fmt.Sprintf("%d vs %d columns", a.NumCols(), b.NumCols())
	}
	for i := range a.Cols() {
		if d := diffVectors(a.Col(i), b.Col(i), exactNil); d != "" {
			return fmt.Sprintf("column %d: %s", i, d)
		}
	}
	return ""
}

func encodePayload(t testing.TB, proto Protocol, ch *vector.Chunk) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeChunk(proto, &buf, ch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptions returns truncated and bit-flipped copies of a payload.
func corruptions(p []byte) [][]byte {
	out := [][]byte{p[:len(p)/2], p[:len(p)-1]}
	for _, at := range []int{0, 4, 5, len(p) / 2, len(p) - 1} {
		if at < len(p) {
			flipped := bytes.Clone(p)
			flipped[at] ^= 0xFF
			out = append(out, flipped)
		}
	}
	return out
}

// The typed row decoders must produce exactly the vectors of the boxed
// decoders they replaced (decode_reference_test.go), and the text
// encoder exactly the bytes of the FormatInt/FormatFloat one, over
// seeded random chunks of every type, three NULL densities, and zero-
// and one-row chunks. On corrupted bodies the typed decoders may be
// stricter (a null flag other than 0/1), never more lenient.
func TestTypedDecodersMatchReference(t *testing.T) {
	refDecode := map[Protocol]func([]byte, int, []vector.Type) (*vector.Chunk, error){
		TextRows:   refDecodeTextChunk,
		BinaryRows: refDecodeBinaryChunk,
	}
	cases := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		types := allTypes
		if seed%4 != 0 {
			types = make([]vector.Type, 1+rng.Intn(6))
			for i := range types {
				types[i] = allTypes[rng.Intn(len(allTypes))]
			}
		}
		for _, rows := range []int{0, 1, 2 + rng.Intn(300)} {
			for _, nullFrac := range []float64{0, 0.1, 1} {
				ch := randomChunk(rng, types, rows, nullFrac)
				cases++
				name := fmt.Sprintf("seed %d, %v, %d rows, nulls %.1f", seed, types, rows, nullFrac)

				var ref bytes.Buffer
				if err := refEncodeTextChunk(&ref, ch); err != nil {
					t.Fatal(err)
				}
				text := encodePayload(t, TextRows, ch)
				if !bytes.Equal(text[4:], ref.Bytes()) {
					t.Fatalf("%s: text encoder differs from the FormatInt/FormatFloat one", name)
				}

				for proto, refDec := range refDecode {
					payload := encodePayload(t, proto, ch)
					got, err := decodeChunk(proto, payload, types)
					if err != nil {
						t.Fatalf("%s %s: %v", name, proto, err)
					}
					want, err := refDec(payload[4:], rows, types)
					if err != nil {
						t.Fatalf("%s %s: reference: %v", name, proto, err)
					}
					if d := diffChunks(got, want, true); d != "" {
						t.Fatalf("%s %s: typed vs reference: %s", name, proto, d)
					}
					if d := diffChunks(got, ch, false); d != "" {
						t.Fatalf("%s %s: round trip: %s", name, proto, d)
					}
					for _, bad := range corruptions(payload) {
						got, err := decodeChunk(proto, bad, types)
						if err != nil {
							if !errors.Is(err, ErrMalformed) {
								t.Fatalf("%s %s: untyped error %v", name, proto, err)
							}
							continue
						}
						want, err := refDec(bad[4:], got.NumRows(), types)
						if err != nil {
							t.Fatalf("%s %s: typed decoder accepted what the reference rejects (%v)", name, proto, err)
						}
						if d := diffChunks(got, want, true); d != "" {
							t.Fatalf("%s %s: corrupted body: typed vs reference: %s", name, proto, d)
						}
					}
				}
			}
		}
	}
	if cases < 300 {
		t.Fatalf("only %d cases", cases)
	}
}

// RowIterate's typed copy must yield the materialised result, and the
// boxed cursor's, for the same query; the socket clients the same rows.
func TestRowIterateMatchesResultSet(t *testing.T) {
	db := engine.New()
	schema := catalog.Schema{
		{Name: "b", Type: vector.Bool}, {Name: "i32", Type: vector.Int32},
		{Name: "i64", Type: vector.Int64}, {Name: "f", Type: vector.Float64},
		{Name: "s", Type: vector.String}, {Name: "raw", Type: vector.Blob},
	}
	ct, err := db.Catalog().CreateTable("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		if err := ct.Data.AppendChunk(randomChunk(rng, allTypes, 2000, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range []string{
		"SELECT * FROM r",
		"SELECT s, i64, f FROM r WHERE i64 > 0 ORDER BY i64",
		"SELECT * FROM r WHERE i32 > 0 AND i32 < 0",
	} {
		rs, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rs.Materialize()
		rs.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := RowIterate(db, q)
		if err != nil {
			t.Fatal(err)
		}
		boxed, err := refRowIterate(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffChunks(got.Chunk(), want.Chunk(), false); d != "" {
			t.Fatalf("%s: RowIterate vs ResultSet: %s", q, d)
		}
		if d := diffChunks(got.Chunk(), boxed.Chunk(), true); d != "" {
			t.Fatalf("%s: RowIterate vs boxed cursor: %s", q, d)
		}
		for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
			tab, err := c.Query(proto, q)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffChunks(tab.Chunk(), want.Chunk(), false); d != "" {
				t.Fatalf("%s %s: client vs ResultSet: %s", q, proto, d)
			}
		}
	}
}

// FuzzDecodeChunk feeds a schema frame and a chunk frame to the client
// decoders of all three protocols. Each either returns ErrMalformed or
// a chunk that re-encodes: for binary rows to the very same body; for
// text rows and columnar, which accept some non-canonical spellings
// ("+5", "1e2", an all-zero null trailer), to a body that decodes to an
// identical chunk and re-encodes to itself. Decoding never allocates
// more than 32 bytes per input byte plus a fixed allowance and a
// vector header per declared column.
func FuzzDecodeChunk(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seedTypes := [][]vector.Type{allTypes, {vector.Float64}, {vector.String, vector.Blob}, {vector.Int32, vector.Bool}}
	for i, types := range seedTypes {
		schema := make(catalog.Schema, len(types))
		for c, typ := range types {
			schema[c] = catalog.Column{Name: fmt.Sprintf("c%d", c), Type: typ}
		}
		var sb bytes.Buffer
		encodeSchema(&sb, schema)
		nullFrac := []float64{0, 0.1, 1, 0.5}[i]
		ch := randomChunk(rng, types, 1+rng.Intn(6), nullFrac)
		for p := TextRows; p <= Columnar; p++ {
			payload := encodePayload(f, p, ch)
			f.Add(uint8(p), sb.Bytes(), payload)
			for _, bad := range corruptions(payload) {
				f.Add(uint8(p), sb.Bytes(), bad)
			}
			f.Add(uint8(p), corruptions(sb.Bytes())[2], payload)
		}
	}
	// A schema declaring 12336 columns in 4 bytes: once sized its
	// slices by the count before checking the payload held them.
	f.Add(uint8(Columnar), []byte("00\x00\x00"), []byte("0"))
	f.Fuzz(func(t *testing.T, p uint8, schema, chunk []byte) {
		proto := Protocol(1 + p%3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, types, err := decodeSchema(schema)
		var ch *vector.Chunk
		if err == nil {
			ch, err = decodeChunk(proto, chunk, types)
		}
		runtime.ReadMemStats(&after)
		limit := uint64(32*(len(schema)+len(chunk)) + 16<<10 + 256*len(types))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("%s: decoding %d+%d bytes of %d columns allocated %d", proto, len(schema), len(chunk), len(types), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s: untyped error: %v", proto, err)
			}
			return
		}
		again := encodePayload(t, proto, ch)
		if proto == BinaryRows && !bytes.Equal(again, chunk) {
			t.Fatalf("binary re-encoding differs from the decoded body")
		}
		back, err := decodeChunk(proto, again, types)
		if err != nil {
			t.Fatalf("%s: re-encoding does not decode: %v", proto, err)
		}
		if d := diffChunks(back, ch, true); d != "" {
			t.Fatalf("%s: re-encoding decodes differently: %s", proto, d)
		}
		if !bytes.Equal(encodePayload(t, proto, back), again) {
			t.Fatalf("%s: re-encoding is not a fixed point", proto)
		}
	})
}
