package spill

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"testing"

	"vexdb/internal/vector"
)

// TestSpillBytesGolden pins the bytes a spill file holds for two
// chunks, the first of all six column types with NULLs, empty strings
// and blobs, NaN and both infinities: spill byte counts are reported
// and compared across builds, so the layout must not drift.
func TestSpillBytesGolden(t *testing.T) {
	withNull := func(v *vector.Vector, i int) *vector.Vector { v.SetNull(i); return v }
	m := NewManager(t.TempDir(), nil)
	defer m.Close()
	f, err := m.Create("golden")
	if err != nil {
		t.Fatal(err)
	}
	var last ChunkRef
	for _, cols := range [][]*vector.Vector{{
		withNull(vector.FromBools([]bool{true, false, true, false}), 3),
		withNull(vector.FromInt32s([]int32{1, -2, math.MaxInt32, 0}), 0),
		vector.FromInt64s([]int64{math.MinInt64, 5, 6, -7}),
		withNull(vector.FromFloat64s([]float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}), 2),
		withNull(vector.FromStrings([]string{"", "héllo", "x", ""}), 2),
		withNull(vector.FromBlobs([][]byte{{1}, nil, {}, {0xff, 0}}), 1),
	}, {
		vector.FromInt64s([]int64{42}),
	}} {
		if last, err = f.WriteChunkRef(cols); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ReadChunkAt(last); err != nil { // flushes the writes
		t.Fatal(err)
	}
	b, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "9758482495159cfc8b8e89673f5bacf8b9ca9fa4ee5dca265c06269b4f6b0df3"
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want || int64(len(b)) != f.BytesWritten() {
		t.Fatalf("%d bytes (%d counted), sha256 %x, want %s", len(b), f.BytesWritten(), sum, want)
	}
}
