package wal

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// fuzzSeedRecords is one record of every type, the rewrite both as a
// DELETE and as an UPDATE, over every column type with NULLs, and an
// insert of rows that are NULL throughout.
func fuzzSeedRecords() []*Record {
	withNull := func(v *vector.Vector) *vector.Vector { v.SetNull(1); return v }
	rows := vector.NewChunk(
		vector.FromBools([]bool{true, false, true}),
		vector.FromInt32s([]int32{1, -2, 3}),
		withNull(vector.FromInt64s([]int64{4, 5, 6})),
		vector.FromFloat64s([]float64{0.5, -1, 2}),
		withNull(vector.FromStrings([]string{"a", "", "ccc"})),
		vector.FromBlobs([][]byte{{1}, nil, {2, 3}}),
	)
	// Every row NULL: each column's null marker or full null trailer.
	allNull := func(v *vector.Vector) *vector.Vector { v.SetNull(0); v.SetNull(1); return v }
	nulls := vector.NewChunk(
		allNull(vector.FromBools([]bool{false, false})),
		allNull(vector.FromFloat64s([]float64{0, 0})),
		allNull(vector.FromStrings([]string{"", ""})),
	)
	cols := []ColumnDef{{"b", vector.Bool}, {"i", vector.Int32}, {"l", vector.Int64},
		{"f", vector.Float64}, {"s", vector.String}, {"x", vector.Blob}}
	return []*Record{
		{LSN: 1, Type: RecCreate, Table: "t", Cols: cols},
		{LSN: 2, Type: RecCreate, Table: "c", Cols: cols, Chunk: rows},
		{LSN: 3, Type: RecInsert, Table: "t", Chunk: rows},
		{LSN: 4, Type: RecTruncate, Table: "t"},
		{LSN: 5, Type: RecDrop, Table: "t"},
		{LSN: 6, Type: RecInsert, Table: "t", Chunk: nulls},
		{LSN: 7, Type: RecCheckpoint},
		{LSN: 8, Type: RecRewrite, Table: "t", Ranges: []storage.RowRange{{Start: 0, End: 2}, {Start: 7, End: 1 << 20}}},
		{LSN: 9, Type: RecRewrite, Table: "t", Ranges: []storage.RowRange{{Start: 1, End: 2}, {Start: 4, End: 6}}, Chunk: rows},
	}
}

// decodeAllowance is what one decode may allocate beyond 8 bytes per
// payload byte: the record, decoder and vector headers. Eight bytes
// per byte covers the densest expansion a well-formed body has — a
// blob row's 24-byte slice header plus its copied bytes for the 4-byte
// length it costs.
const decodeAllowance = 16 << 10

// FuzzDecodePayload feeds record bodies — every type, truncated and
// bit-flipped — to the decoder. Whatever the bytes, it returns a record
// or an ErrCorrupt, never panics, and never allocates past a constant
// multiple of the body, so a length or count field cannot size an
// allocation the body does not back.
func FuzzDecodePayload(f *testing.F) {
	for _, r := range fuzzSeedRecords() {
		p, err := encodePayload(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:len(p)-1])
		for _, at := range []int{8, 9, 12, len(p) / 2, len(p) - 1} {
			if at < len(p) {
				flipped := bytes.Clone(p)
				flipped[at] ^= 0xFF
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := decodePayload(p)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error: %v", err)
		}
		if (r == nil) == (err == nil) {
			t.Fatalf("record %v with error %v", r, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(p)+decodeAllowance) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
		}
	})
}
