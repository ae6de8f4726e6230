package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// goldenRows is one chunk of all six column types with NULLs, empty
// strings and blobs, NaN and both infinities.
func goldenRows() *vector.Chunk {
	withNull := func(v *vector.Vector, i int) *vector.Vector { v.SetNull(i); return v }
	return vector.NewChunk(
		withNull(vector.FromBools([]bool{true, false, true, false}), 3),
		withNull(vector.FromInt32s([]int32{1, -2, math.MaxInt32, 0}), 0),
		vector.FromInt64s([]int64{math.MinInt64, 5, 6, -7}),
		withNull(vector.FromFloat64s([]float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}), 2),
		withNull(vector.FromStrings([]string{"", "héllo", "x", ""}), 2),
		withNull(vector.FromBlobs([][]byte{{1}, nil, {}, {0xff, 0}}), 1),
	)
}

// TestRowRecordBytesGolden pins the bytes of every record type that
// carries rows: the chunk inside them is the layout logs already on
// disk hold, so any change to it must fail here before a log does.
func TestRowRecordBytesGolden(t *testing.T) {
	cols := []ColumnDef{{"b", vector.Bool}, {"i", vector.Int32}, {"l", vector.Int64},
		{"f", vector.Float64}, {"s", vector.String}, {"x", vector.Blob}}
	for _, c := range []struct {
		rec  *Record
		want string
	}{
		{&Record{LSN: 3, Type: RecInsert, Table: "t", Chunk: goldenRows()},
			"553fdfdd6edad6cfa2b9db8a972ccfc0b69ad118b3655cf92165f19dfda48a1e"},
		{&Record{LSN: 2, Type: RecCreate, Table: "c", Cols: cols, Chunk: goldenRows()},
			"d8a12b6e6fe0c5dde645cb0b1a2dfaec1efb819bf84f15e0078675f3ba32253a"},
		{&Record{LSN: 9, Type: RecRewrite, Table: "t", Ranges: []storage.RowRange{{Start: 1, End: 3}, {Start: 40, End: 42}}, Chunk: goldenRows()},
			"7cfeb8637f7c67ccde867f26c1da601a189d5cae226b1768c3793667e0a217f0"},
	} {
		p, err := encodePayload(c.rec)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(p)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s record: sha256 %s, want %s", c.rec.Type, got, c.want)
		}
	}
}
