package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vexdb/internal/vector"
)

var allTypes = []vector.Type{
	vector.Bool, vector.Int32, vector.Int64, vector.Float64, vector.String, vector.Blob,
}

func nonNullValueFor(t vector.Type) vector.Value {
	switch t {
	case vector.Bool:
		return vector.NewBool(true)
	case vector.Int32:
		return vector.NewInt32(-42)
	case vector.Int64:
		return vector.NewInt64(1 << 40)
	case vector.Float64:
		return vector.NewFloat64(-2.5)
	case vector.String:
		return vector.NewString("solo")
	case vector.Blob:
		return vector.NewBlob([]byte{1, 2, 3})
	}
	panic("unreachable")
}

// roundTrip writes the store and reads it back.
func roundTrip(t *testing.T, s *ColumnStore, names []string) *ColumnStore {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, names, s); err != nil {
		t.Fatal(err)
	}
	gotNames, got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNames) != len(names) {
		t.Fatalf("names = %v", gotNames)
	}
	return got
}

// Satellite: all-null, empty and single-row columns must round-trip
// for every column type.
func TestDiskRoundTripEdgeCasesAllTypes(t *testing.T) {
	for _, typ := range allTypes {
		t.Run(typ.String(), func(t *testing.T) {
			// Empty column.
			s := NewColumnStore([]vector.Type{typ})
			got := roundTrip(t, s, []string{"c"})
			if got.NumRows() != 0 {
				t.Fatalf("empty: rows = %d", got.NumRows())
			}
			if got.Types()[0] != typ {
				t.Fatalf("empty: type = %v", got.Types()[0])
			}

			// Single-row column.
			s = NewColumnStore([]vector.Type{typ})
			v := vector.New(typ, 1)
			v.AppendValue(nonNullValueFor(typ))
			if err := s.AppendChunk(vector.NewChunk(v)); err != nil {
				t.Fatal(err)
			}
			got = roundTrip(t, s, []string{"c"})
			if got.NumRows() != 1 {
				t.Fatalf("single: rows = %d", got.NumRows())
			}
			gv := mustColumn(t, got, 0)
			if typ == vector.Blob {
				if !bytes.Equal(gv.Get(0).Bytes(), nonNullValueFor(typ).Bytes()) {
					t.Fatalf("single: %v", gv.Get(0))
				}
			} else if !gv.Get(0).Equal(nonNullValueFor(typ)) {
				t.Fatalf("single: got %v want %v", gv.Get(0), nonNullValueFor(typ))
			}

			// All-null column spanning a sealed segment and a tail.
			s = NewColumnStore([]vector.Type{typ})
			n := SegmentRows + 3
			v = vector.New(typ, n)
			for i := 0; i < n; i++ {
				v.AppendValue(vector.Null())
			}
			if err := s.AppendChunk(vector.NewChunk(v)); err != nil {
				t.Fatal(err)
			}
			got = roundTrip(t, s, []string{"c"})
			if got.NumRows() != n {
				t.Fatalf("all-null: rows = %d", got.NumRows())
			}
			gv = mustColumn(t, got, 0)
			for i := 0; i < n; i++ {
				if !gv.IsNull(i) {
					t.Fatalf("all-null: row %d not null", i)
				}
			}
		})
	}
}

func TestDiskV2MultiSegmentRoundTrip(t *testing.T) {
	n := SegmentRows*2 + 100
	s := testStore(t, n)
	got := roundTrip(t, s, []string{"a", "b", "c"})
	if got.NumRows() != n || got.NumSegments() != 3 {
		t.Fatalf("rows=%d segs=%d", got.NumRows(), got.NumSegments())
	}
	// Loaded segments stay sealed (including the former tail) and
	// encoded until scanned.
	for i := 0; i < got.NumSegments(); i++ {
		if !got.SegmentIsSealed(i) {
			t.Fatalf("loaded segment %d not sealed", i)
		}
	}
	want := mustColumn(t, s, 0)
	have := mustColumn(t, got, 0)
	for i := 0; i < n; i++ {
		if want.Int64s()[i] != have.Int64s()[i] {
			t.Fatalf("row %d: %d != %d", i, want.Int64s()[i], have.Int64s()[i])
		}
	}
	// Zone maps survive the round trip (column 0 holds 0..n-1, so the
	// first segment spans exactly [0, SegmentRows)).
	z := got.Zones(0)
	if z == nil || !z[0].HasMinMax() || z[0].Min.Int64() != 0 || z[0].Max.Int64() != SegmentRows-1 {
		t.Fatalf("zone = %+v", z)
	}
}

func TestDiskV2AppendAfterLoad(t *testing.T) {
	s := testStore(t, SegmentRows+10)
	got := roundTrip(t, s, []string{"a", "b", "c"})
	if err := got.AppendRow([]vector.Value{
		vector.NewInt64(999), vector.NewFloat64(1), vector.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != SegmentRows+11 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	col := mustColumn(t, got, 0)
	if col.Int64s()[SegmentRows+10] != 999 {
		t.Fatal("appended row lost")
	}
}

// Only version 3 is read: real version-1 and version-2 images (the
// retired formats) are rejected like any unknown magic.
func TestDiskUnknownVersionRejected(t *testing.T) {
	// A v1 file: magic, ncols, nrows, column meta, then one raw
	// payload + crc per column.
	var v1 bytes.Buffer
	v1.Write([]byte("VXTB0001"))
	binary.Write(&v1, binary.LittleEndian, uint32(1))
	binary.Write(&v1, binary.LittleEndian, uint64(3))
	binary.Write(&v1, binary.LittleEndian, uint16(2))
	v1.WriteString("id")
	v1.WriteByte(byte(vector.Int64))
	payload, err := AppendColumn(nil, vector.FromInt64s([]int64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	binary.Write(&v1, binary.LittleEndian, uint64(len(payload)))
	v1.Write(payload)
	binary.Write(&v1, binary.LittleEndian, crc32.ChecksumIEEE(payload))

	// A v2 file: the v3 layout without sketches.
	s := eventsStore(t, 2, 100)
	stripSketches(s)
	var v2 bytes.Buffer
	if err := WriteTable(&v2, []string{"key", "val", "tag"}, s); err != nil {
		t.Fatal(err)
	}
	copy(v2.Bytes(), "VXTB0002")

	images := map[string][]byte{"VXTB0001": v1.Bytes(), "VXTB0002": v2.Bytes()}
	for _, magic := range []string{"VXTB0004", "VXTB9999", "XXXXXXXX"} {
		images[magic] = []byte(magic + strings.Repeat("\x00", 64))
	}
	for magic, image := range images {
		t.Run(magic, func(t *testing.T) {
			_, _, err := ReadTable(bytes.NewReader(image))
			if err == nil || !strings.Contains(err.Error(), "unsupported") {
				t.Fatalf("err = %v, want unsupported-version error", err)
			}
		})
	}
}

// Satellite: decodeColumn must reject malformed null trailers and
// trailing garbage instead of best-effort decoding.
func TestDecodeColumnRejectsMalformedPayloads(t *testing.T) {
	int64Payload := func(vals []int64, trailer []byte) []byte {
		var p []byte
		for _, v := range vals {
			p = binary.LittleEndian.AppendUint64(p, uint64(v))
		}
		return append(p, trailer...)
	}
	cases := []struct {
		name    string
		typ     vector.Type
		n       int
		payload []byte
		wantSub string
	}{
		{"truncated-trailer", vector.Int64, 3, int64Payload([]int64{1, 2, 3}, []byte{0, 1}), "null trailer"},
		{"bad-trailer-byte", vector.Int64, 2, int64Payload([]int64{1, 2}, []byte{0, 7}), "null trailer byte"},
		{"bool-bad-byte", vector.Bool, 2, []byte{1, 3}, "bool payload byte"},
		{"string-trailing-garbage", vector.String, 1, append(binary.LittleEndian.AppendUint32(nil, 1), 'x', 0xEE), "trailing"},
		{"string-truncated", vector.String, 1, binary.LittleEndian.AppendUint32(nil, 10), "truncated"},
		{"blob-trailing-garbage", vector.Blob, 1, append(binary.LittleEndian.AppendUint32(nil, 0), 0xEE), "trailing"},
		{"short-fixed", vector.Int32, 3, make([]byte, 7), "truncated null trailer"},
		// A header claiming 2^30 rows over an empty payload: rejected
		// before the row count sizes a 16 GiB allocation.
		{"string-row-count-past-payload", vector.String, 1 << 30, nil, "truncated"},
		{"blob-row-count-past-payload", vector.Blob, 1 << 30, make([]byte, 7), "truncated"},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeColumn(c.typ, c.n, c.payload)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting %d payload bytes allocated %d", c.name, len(c.payload), grew)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	// The valid shapes still decode.
	if _, err := DecodeColumn(vector.Int64, 2, int64Payload([]int64{1, 2}, nil)); err != nil {
		t.Errorf("plain payload rejected: %v", err)
	}
	if v, err := DecodeColumn(vector.Int64, 2, int64Payload([]int64{1, 2}, []byte{0, 1})); err != nil || !v.IsNull(1) {
		t.Errorf("valid trailer rejected: %v", err)
	}
}

// Acceptance: RLE/dict-friendly data persists measurably smaller than
// the same data written uncompressed.
func TestCompressedFileSmallerThanRaw(t *testing.T) {
	build := func(compress bool) *ColumnStore {
		s := NewColumnStore([]vector.Type{vector.Int64, vector.String})
		s.SetCompression(compress)
		n := SegmentRows * 4
		ids := make([]int64, n)
		cats := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = int64(i / 1000) // long runs
			cats[i] = fmt.Sprintf("category-%d", i%8)
		}
		if err := s.AppendChunk(vector.NewChunk(vector.FromInt64s(ids), vector.FromStrings(cats))); err != nil {
			t.Fatal(err)
		}
		return s
	}
	var raw, comp bytes.Buffer
	if err := WriteTable(&raw, []string{"id", "cat"}, build(false)); err != nil {
		t.Fatal(err)
	}
	if err := WriteTable(&comp, []string{"id", "cat"}, build(true)); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= raw.Len()/2 {
		t.Fatalf("compressed file %d bytes, raw %d: want < half", comp.Len(), raw.Len())
	}
	// And the compressed file still round-trips faithfully.
	_, got, err := ReadTable(&comp)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != SegmentRows*4 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if c := mustColumn(t, got, 1); c.Strings()[9] != "category-1" {
		t.Fatalf("round trip content: %q", c.Strings()[9])
	}
}

// A file whose zone bounds are typed unlike their column must be
// rejected at load: a mistyped bound would otherwise silently
// over-prune at scan time.
func TestDiskV2RejectsMistypedZoneBounds(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("VXTB0003"))
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // ncols
	binary.Write(&buf, binary.LittleEndian, uint64(1)) // nrows
	binary.Write(&buf, binary.LittleEndian, uint16(1))
	buf.WriteString("a")
	buf.WriteByte(byte(vector.Int64))
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // nsegs
	binary.Write(&buf, binary.LittleEndian, uint32(1)) // rows
	buf.WriteByte(byte(EncRaw))
	buf.WriteByte(1)                                   // flags: has min/max, no sketch
	binary.Write(&buf, binary.LittleEndian, uint32(0)) // null count
	for i := 0; i < 2; i++ {                           // min and max typed String
		buf.WriteByte(byte(vector.String))
		binary.Write(&buf, binary.LittleEndian, uint32(1))
		buf.WriteString("x")
	}
	payload := binary.LittleEndian.AppendUint64(nil, 7)
	binary.Write(&buf, binary.LittleEndian, uint64(len(payload)))
	buf.Write(payload)
	binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(payload))

	_, _, err := ReadTable(&buf)
	if err == nil || !strings.Contains(err.Error(), "zone bounds") {
		t.Fatalf("err = %v, want zone-bounds type error", err)
	}
}

// tableSeeds are whole table files: every column type with NULLs, an
// all-NULL column and NULL-free integer and VARCHAR columns that seal
// as FOR, RLE and dict, written with statistics (zone maps, sketches)
// and without.
func tableSeeds(t testing.TB) [][]byte {
	types := append(slices.Clone(allTypes), vector.Int64, vector.Int32, vector.String)
	names := make([]string, len(types))
	cols := make([]*vector.Vector, len(types))
	for c, typ := range types {
		names[c] = fmt.Sprintf("c%d", c)
		cols[c] = vector.New(typ, 0)
	}
	for i := range 40 {
		for c, typ := range types {
			switch {
			case c < len(allTypes) && i%7 == c:
				cols[c].AppendValue(vector.Null())
			case c < len(allTypes):
				cols[c].AppendValue(nonNullValueFor(typ))
			case typ == vector.Int64:
				cols[c].AppendValue(vector.NewInt64(int64(i / 8))) // runs
			case typ == vector.Int32:
				cols[c].AppendValue(vector.NewInt32(int32(1000 + i*3)))
			default:
				cols[c].AppendValue(vector.NewString(fmt.Sprintf("s%d", i%3)))
			}
		}
	}
	var seeds [][]byte
	for _, compress := range []bool{true, false} {
		s := NewColumnStore(types)
		s.SetCompression(compress)
		if err := s.AppendChunk(vector.NewChunk(cols...)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, names, s); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzReadTable feeds whole table files — with zone maps and sketches,
// truncated and bit-flipped — to ReadTable. Whatever the bytes, it
// returns an error wrapping ErrBadTableFile or a table every column of
// which decodes or fails with ErrCorruptColumn; it never panics, and
// allocates in proportion to its input past its fixed read buffer.
func FuzzReadTable(f *testing.F) {
	for _, b := range tableSeeds(f) {
		f.Add(b)
		for _, cut := range []int{8, 12, 20, len(b) / 3, len(b) - 1} {
			f.Add(b[:cut])
		}
		for _, at := range []int{9, 13, 21, 25, 40, len(b) / 2, len(b) - 5} {
			flipped := bytes.Clone(b)
			flipped[at] ^= 0xFF
			f.Add(flipped)
		}
	}
	// One BIGINT row whose payload claims 2^62 bytes, and 2^32-1
	// columns of a five-byte file.
	huge := binary.LittleEndian.AppendUint32(bytes.Clone(tableMagicV3[:]), 1)
	huge = binary.LittleEndian.AppendUint64(huge, 1)
	huge = append(huge, 1, 0, 'a', byte(vector.Int64))
	huge = binary.LittleEndian.AppendUint32(huge, 1)
	huge = binary.LittleEndian.AppendUint32(huge, 1)
	huge = append(huge, byte(EncRaw), 0, 0, 0, 0, 0)
	f.Add(binary.LittleEndian.AppendUint64(huge, 1<<62))
	f.Add(binary.LittleEndian.AppendUint32(bytes.Clone(tableMagicV3[:]), math.MaxUint32))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, store, err := ReadTable(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 40*uint64(len(b))+(1<<20)+(64<<10) {
			t.Fatalf("reading %d bytes allocated %d", len(b), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrBadTableFile) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		snap := store.Snapshot()
		for i := range snap.NumSegments() {
			for _, c := range snap.SegmentColumns(i, nil, nil) {
				if _, err := c.Decode(nil); err != nil && !errors.Is(err, ErrCorruptColumn) {
					t.Fatalf("segment %d: untyped decode error %v", i, err)
				}
			}
		}
	})
}
