package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"vexdb/internal/vector"
)

// decodeAllocBound is the most one DecodeChunk call may allocate for
// b: 40 bytes per input byte plus 64 KiB. The densest valid frame is
// columns without rows, where each 5-byte column decodes into a
// 200-byte vector header; every count the frame carries is checked
// against the bytes left before it sizes anything.
func decodeAllocBound(b []byte) uint64 { return 40*uint64(len(b)) + 64<<10 }

// codecSeedChunks are chunks as the WAL and spill files write them:
// rows of all six column types with NULLs, empty strings and blobs,
// NaN and both infinities (a WAL insert, a CTAS or a grace partition);
// a sorted run's window with its trailing position column; a zero-row
// chunk; the zero-column chunk; and the widest chunk, 4 096 columns
// without rows, which allocates the most per input byte.
func codecSeedChunks() [][]*vector.Vector {
	withNull := func(v *vector.Vector, i int) *vector.Vector { v.SetNull(i); return v }
	wide := make([]*vector.Vector, maxChunkCols)
	for i := range wide {
		wide[i] = vector.New(vector.Type(1+i%int(vector.Blob)), 0)
	}
	return [][]*vector.Vector{
		{
			withNull(vector.FromBools([]bool{true, false, true, false}), 3),
			withNull(vector.FromInt32s([]int32{1, -2, math.MaxInt32, 0}), 0),
			vector.FromInt64s([]int64{math.MinInt64, 5, 6, -7}),
			withNull(vector.FromFloat64s([]float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}), 2),
			withNull(vector.FromStrings([]string{"", "héllo", "x", ""}), 2),
			withNull(vector.FromBlobs([][]byte{{1}, nil, {}, {0xff, 0}}), 1),
		},
		{
			vector.FromStrings([]string{"b", "a", "a"}),
			withNull(vector.FromFloat64s([]float64{0.5, 0, math.Inf(1)}), 1),
			vector.FromInt64s([]int64{7, 2, 9}),
		},
		{vector.New(vector.Int64, 0)},
		nil,
		wide,
	}
}

func mustAppendChunk(t testing.TB, cols []*vector.Vector) []byte {
	t.Helper()
	b, err := AppendChunk(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestChunkCodecRoundTrip(t *testing.T) {
	for i, cols := range codecSeedChunks() {
		b := mustAppendChunk(t, cols)
		// A frame decodes from the front of whatever follows it.
		in := append(bytes.Clone(b), 0xAB)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, rest, err := DecodeChunk(in)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocBound(in) {
			t.Fatalf("chunk %d: decoding %d bytes allocated %d", i, len(in), grew)
		}
		if !bytes.Equal(rest, []byte{0xAB}) {
			t.Fatalf("chunk %d: rest %x", i, rest)
		}
		if again := mustAppendChunk(t, got); !bytes.Equal(again, b) {
			t.Fatalf("chunk %d re-encodes to different bytes", i)
		}
		for c, col := range cols {
			if got[c].Type() != col.Type() || got[c].Len() != col.Len() {
				t.Fatalf("chunk %d column %d: %s x %d", i, c, got[c].Type(), got[c].Len())
			}
		}
	}
}

// Frames no writer produces are rejected with an error, and a column
// count the bytes cannot back sizes no allocation.
func TestDecodeChunkRejectsMalformedFrames(t *testing.T) {
	good := mustAppendChunk(t, codecSeedChunks()[0])
	header := func(rows uint32, ncols uint16) []byte {
		return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(nil, rows), ncols)
	}
	flipped := bytes.Clone(good)
	flipped[7] ^= 0xFF // the first column's payload length
	zeroTrailer := mustAppendChunk(t, []*vector.Vector{vector.FromInt64s([]int64{1, 2})})
	zeroTrailer = append(zeroTrailer, 0, 0)
	binary.LittleEndian.PutUint32(zeroTrailer[7:], 18) // 16 value bytes and a trailer marking no NULL
	cases := []struct {
		name, wantSub string
		b             []byte
	}{
		{"empty", "truncated chunk header", nil},
		{"short header", "truncated chunk header", good[:5]},
		{"header only", "implausible", good[:6]},
		{"truncated payload", "truncated", good[:len(good)-1]},
		{"bad payload length", "truncated", flipped},
		{"columns past the bytes", "implausible", append(header(1, 3), make([]byte, 14)...)},
		{"columns past the cap", "implausible", append(header(0, 1<<12+1), make([]byte, 5*(1<<12+1))...)},
		{"rows without columns", "implausible", header(3, 0)},
		{"bad column type", "unsupported column type", append(header(1, 1), 0xEE, 1, 0, 0, 0, 0)},
		{"trailer without NULL", "marks none", zeroTrailer},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeChunk(c.b)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantSub)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocBound(c.b) {
			t.Errorf("%s: rejecting %d bytes allocated %d", c.name, len(c.b), grew)
		}
	}
}

func TestAppendChunkRejectsUnframeableColumns(t *testing.T) {
	if _, err := AppendChunk(nil, []*vector.Vector{vector.FromInt64s([]int64{1, 2}), vector.FromInt64s([]int64{3})}); err == nil {
		t.Error("ragged columns framed")
	}
	wide := make([]*vector.Vector, 1<<12+1)
	for i := range wide {
		wide[i] = vector.FromInt64s([]int64{int64(i)})
	}
	if _, err := AppendChunk(nil, wide); err == nil {
		t.Error("a chunk the decoder rejects for its column count framed")
	}
	if _, err := AppendChunk(nil, wide[:1<<12]); err != nil {
		t.Errorf("chunk of %d columns: %v", 1<<12, err)
	}
}

// FuzzChunkCodec feeds chunk frames — WAL and spill chunks of every
// column type, truncated and bit-flipped — to DecodeChunk. Whatever the
// bytes, it returns an error or columns that re-encode to exactly the
// bytes it consumed, never panics, and never allocates past
// decodeAllocBound.
func FuzzChunkCodec(f *testing.F) {
	// The widest chunk stays out of the corpus: at 20 KiB it would
	// dominate the fuzzer's time; TestChunkCodecRoundTrip checks it.
	seeds := codecSeedChunks()
	for _, cols := range seeds[:len(seeds)-1] {
		b := mustAppendChunk(f, cols)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		for _, at := range []int{0, 4, 6, 7, 11, len(b) / 2, len(b) - 1} {
			if at < len(b) {
				flipped := bytes.Clone(b)
				flipped[at] ^= 0xFF
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cols, rest, err := DecodeChunk(b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocBound(b) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			return
		}
		again, err := AppendChunk(nil, cols)
		if err != nil {
			t.Fatalf("decoded chunk does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b[:len(b)-len(rest)]) {
			t.Fatalf("%d consumed bytes re-encode to %d different ones", len(b)-len(rest), len(again))
		}
	})
}
