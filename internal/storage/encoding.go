package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"vexdb/internal/vector"
)

// Encoding identifies the physical representation of one sealed
// segment column.
type Encoding uint8

// Sealed-column encodings. The encoder picks per column, per segment:
// columns containing NULLs always stay raw, and a compressed encoding
// is used only when it is actually smaller than the raw payload.
const (
	// EncRaw stores the column uncompressed.
	EncRaw Encoding = iota
	// EncRLE stores a NULL-free integer column as (value, run length)
	// pairs; chosen for low-cardinality / clustered data.
	EncRLE
	// EncFOR stores a NULL-free integer column frame-of-reference
	// style: a base value plus fixed-width offsets narrowed to the
	// fewest bytes that span the segment's value range.
	EncFOR
	// EncDict stores a NULL-free string column as a distinct-value
	// dictionary plus per-row codes.
	EncDict
)

// String returns the encoding's short name.
func (e Encoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncRLE:
		return "rle"
	case EncFOR:
		return "for"
	case EncDict:
		return "dict"
	}
	return fmt.Sprintf("enc(%d)", uint8(e))
}

func validEncoding(e Encoding) bool { return e <= EncDict }

// zoneMaxString bounds the length of string zone-map boundaries; a
// segment whose min or max string exceeds it carries no min/max (the
// segment is simply never pruned) rather than bloating the zone map.
const zoneMaxString = 64

// ZoneMap summarizes one column of one sealed segment for scan
// pruning. Min and Max are the smallest and largest comparable
// non-NULL values (NULL Values when the column has none: an all-NULL
// column, a Blob column, or a Float64 column of only NaNs). A
// zero-valued ZoneMap (Rows == 0) means "no statistics" and must
// never be used to prune.
type ZoneMap struct {
	Min, Max  vector.Value
	NullCount int
	Rows      int
}

// HasMinMax reports whether the zone carries usable value bounds.
// (Type() is Invalid both for NULL and for zero Values, so this also
// rejects never-populated bounds.)
func (z ZoneMap) HasMinMax() bool {
	return z.Min.Type() != vector.Invalid && z.Max.Type() != vector.Invalid
}

// computeZone scans a column once for min/max and null count.
// Float64 NaNs are excluded from the bounds: NaN compares false
// against everything, so a NaN row can never satisfy the comparison
// predicates pruning is allowed to act on (=, <, <=, >, >=). Numeric
// columns take unboxed fast paths — sealing runs on the append hot
// path.
func computeZone(v *vector.Vector) ZoneMap {
	n := v.Len()
	z := ZoneMap{Rows: n}
	switch v.Type() {
	case vector.Int32:
		var mn, mx int32
		seen := false
		for i, x := range v.Int32s() {
			if v.IsNull(i) {
				z.NullCount++
				continue
			}
			if !seen {
				mn, mx, seen = x, x, true
				continue
			}
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		if seen {
			z.Min, z.Max = vector.NewInt32(mn), vector.NewInt32(mx)
		}
	case vector.Int64:
		var mn, mx int64
		seen := false
		for i, x := range v.Int64s() {
			if v.IsNull(i) {
				z.NullCount++
				continue
			}
			if !seen {
				mn, mx, seen = x, x, true
				continue
			}
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		if seen {
			z.Min, z.Max = vector.NewInt64(mn), vector.NewInt64(mx)
		}
	case vector.Float64:
		var mn, mx float64
		seen := false
		for i, x := range v.Float64s() {
			if v.IsNull(i) {
				z.NullCount++
				continue
			}
			if math.IsNaN(x) {
				continue
			}
			if !seen {
				mn, mx, seen = x, x, true
				continue
			}
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		if seen {
			z.Min, z.Max = vector.NewFloat64(mn), vector.NewFloat64(mx)
		}
	case vector.Blob:
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				z.NullCount++ // blobs are not orderable; null count only
			}
		}
	default: // Bool, String
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				z.NullCount++
				continue
			}
			val := v.Get(i)
			if z.Min.Type() == vector.Invalid {
				z.Min, z.Max = val, val
				continue
			}
			if c, err := val.Compare(z.Min); err == nil && c < 0 {
				z.Min = val
			}
			if c, err := val.Compare(z.Max); err == nil && c > 0 {
				z.Max = val
			}
		}
	}
	if v.Type() == vector.String && z.HasMinMax() &&
		(len(z.Min.Str()) > zoneMaxString || len(z.Max.Str()) > zoneMaxString) {
		z.Min, z.Max = vector.Null(), vector.Null()
	}
	return z
}

// SealedColumn is one immutable column of a sealed segment: an
// encoding, the encoded payload (or a cached raw vector), and the
// zone map used for scan pruning.
type SealedColumn struct {
	Enc  Encoding
	Typ  vector.Type
	Rows int
	Zone ZoneMap
	// Sketch is the column's distinct-count HLL, computed at seal time
	// when compression (and thus statistics) is enabled; nil otherwise
	// (uncompressed tables, all-NULL or boolean columns, pre-V3 files).
	Sketch *HLL

	// payload holds the encoded bytes for compressed encodings, and
	// for raw columns loaded from disk that have not been decoded yet.
	payload []byte
	// vec is the materialized raw form: set at seal time for EncRaw,
	// or filled lazily (exactly once) from payload for raw columns
	// loaded from disk. Compressed columns never cache a decoded
	// vector — that would defeat the compression.
	vec     *vector.Vector
	once    sync.Once
	lazyErr error
	// logicalBytes estimates the uncompressed payload size for stats.
	logicalBytes int
}

// sealColumn freezes one column vector into its sealed form, choosing
// the smallest encoding. With compress disabled the column stays raw
// and carries no zone map, which is the reference path differential
// tests compare against.
func sealColumn(v *vector.Vector, compress bool) *SealedColumn {
	c := &SealedColumn{Enc: EncRaw, Typ: v.Type(), Rows: v.Len(), vec: v, logicalBytes: rawSizeOf(v)}
	if !compress {
		return c
	}
	c.Zone = computeZone(v)
	c.Sketch = computeSketch(v)
	if v.HasNulls() || v.Len() == 0 {
		return c
	}
	switch v.Type() {
	case vector.Int32, vector.Int64:
		if p, enc := encodeInts(v); p != nil && len(p) < c.logicalBytes {
			c.Enc, c.payload, c.vec = enc, p, nil
		}
	case vector.String:
		if p := encodeDict(v); p != nil && len(p) < c.logicalBytes {
			c.Enc, c.payload, c.vec = EncDict, p, nil
		}
	}
	return c
}

// loadedColumn reconstructs a sealed column from its persisted form.
// Raw payloads are kept as bytes and decoded lazily on first scan.
func loadedColumn(enc Encoding, typ vector.Type, rows int, zone ZoneMap, sketch *HLL, payload []byte) *SealedColumn {
	return &SealedColumn{Enc: enc, Typ: typ, Rows: rows, Zone: zone, Sketch: sketch, payload: payload,
		logicalBytes: logicalSizeFor(typ, rows, enc, payload)}
}

// rawSizeOf estimates the raw storage payload size of a vector.
func rawSizeOf(v *vector.Vector) int {
	switch v.Type() {
	case vector.Bool:
		return v.Len()
	case vector.Int32:
		return 4 * v.Len()
	case vector.Int64, vector.Float64:
		return 8 * v.Len()
	case vector.String:
		n := 0
		for _, s := range v.Strings() {
			n += 4 + len(s)
		}
		return n
	case vector.Blob:
		n := 0
		for _, b := range v.Blobs() {
			n += 4 + len(b)
		}
		return n
	}
	return 0
}

// logicalSizeFor estimates the uncompressed size of a loaded column
// without decoding it (exact for fixed-width types; for raw
// variable-width payloads the payload is already the raw form).
func logicalSizeFor(typ vector.Type, rows int, enc Encoding, payload []byte) int {
	if w := typ.FixedWidth(); w > 0 {
		return w * rows
	}
	if enc == EncRaw {
		return len(payload)
	}
	// Variable-width compressed (dict): sum the dictionary entry
	// lengths weighted by use would require decoding; approximate
	// with the payload size (stats only).
	return len(payload)
}

// CompressedBytes returns the column's actual storage footprint.
func (c *SealedColumn) CompressedBytes() int {
	if c.payload != nil {
		return len(c.payload)
	}
	return c.logicalBytes
}

// LogicalBytes returns the estimated uncompressed payload size.
func (c *SealedColumn) LogicalBytes() int { return c.logicalBytes }

// intAt reads an integer column widened to int64.
func intAt(v *vector.Vector, i int) int64 {
	if v.Type() == vector.Int32 {
		return int64(v.Int32s()[i])
	}
	return v.Int64s()[i]
}

// encodeInts picks between RLE and FOR for a NULL-free integer
// column in one pass, returning (nil, EncRaw) when neither applies.
func encodeInts(v *vector.Vector) ([]byte, Encoding) {
	n := v.Len()
	width := v.Type().FixedWidth()
	minV, maxV := intAt(v, 0), intAt(v, 0)
	runs := 1
	prev := minV
	for i := 1; i < n; i++ {
		x := intAt(v, i)
		if x != prev {
			runs++
			prev = x
		}
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	// uint64 subtraction is exact for maxV >= minV even when the
	// signed difference overflows.
	forWidth := deltaWidth(uint64(maxV) - uint64(minV))
	rleSize := 4 + runs*12
	forSize := 9 + n*forWidth
	rawSize := n * width
	if rleSize < forSize && rleSize < rawSize {
		return encodeRLE(v, runs), EncRLE
	}
	if forSize < rawSize {
		return encodeFOR(v, minV, forWidth), EncFOR
	}
	return nil, EncRaw
}

// deltaWidth returns the narrowest byte width holding values in
// [0, r].
func deltaWidth(r uint64) int {
	switch {
	case r == 0:
		return 0
	case r <= math.MaxUint8:
		return 1
	case r <= math.MaxUint16:
		return 2
	case r <= math.MaxUint32:
		return 4
	}
	return 8
}

// RLE payload: uint32 run count, then per run int64 value + uint32
// run length.
func encodeRLE(v *vector.Vector, runs int) []byte {
	out := make([]byte, 0, 4+runs*12)
	out = binary.LittleEndian.AppendUint32(out, uint32(runs))
	n := v.Len()
	cur := intAt(v, 0)
	length := 1
	flush := func() {
		out = binary.LittleEndian.AppendUint64(out, uint64(cur))
		out = binary.LittleEndian.AppendUint32(out, uint32(length))
	}
	for i := 1; i < n; i++ {
		x := intAt(v, i)
		if x == cur {
			length++
			continue
		}
		flush()
		cur, length = x, 1
	}
	flush()
	return out
}

func decodeRLE(typ vector.Type, rows int, payload []byte, dst *vector.Vector) (*vector.Vector, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("rle payload too short (%d bytes)", len(payload))
	}
	runs := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+runs*12 {
		return nil, fmt.Errorf("rle payload %d bytes for %d runs", len(payload), runs)
	}
	out := intSink(dst, typ, rows)
	total := 0
	off := 4
	for r := 0; r < runs; r++ {
		val := int64(binary.LittleEndian.Uint64(payload[off:]))
		length := int(binary.LittleEndian.Uint32(payload[off+8:]))
		off += 12
		if length <= 0 || total+length > rows {
			return nil, fmt.Errorf("rle run %d: length %d exceeds %d rows", r, length, rows)
		}
		out.fill(total, total+length, val)
		total += length
	}
	if total != rows {
		return nil, fmt.Errorf("rle runs cover %d of %d rows", total, rows)
	}
	return out.vector(), nil
}

// FOR payload: int64 base, uint8 delta width, then rows×width delta
// bytes (width 0 means every value equals the base).
func encodeFOR(v *vector.Vector, base int64, width int) []byte {
	n := v.Len()
	out := make([]byte, 0, 9+n*width)
	out = binary.LittleEndian.AppendUint64(out, uint64(base))
	out = append(out, byte(width))
	for i := 0; i < n; i++ {
		d := uint64(intAt(v, i)) - uint64(base)
		switch width {
		case 0:
		case 1:
			out = append(out, byte(d))
		case 2:
			out = binary.LittleEndian.AppendUint16(out, uint16(d))
		case 4:
			out = binary.LittleEndian.AppendUint32(out, uint32(d))
		default:
			out = binary.LittleEndian.AppendUint64(out, d)
		}
	}
	return out
}

func decodeFOR(typ vector.Type, rows int, payload []byte, dst *vector.Vector) (*vector.Vector, error) {
	if len(payload) < 9 {
		return nil, fmt.Errorf("for payload too short (%d bytes)", len(payload))
	}
	base := int64(binary.LittleEndian.Uint64(payload))
	width := int(payload[8])
	switch width {
	case 0, 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("for delta width %d invalid", width)
	}
	if len(payload) != 9+rows*width {
		return nil, fmt.Errorf("for payload %d bytes for %d rows of width %d", len(payload), rows, width)
	}
	out := intSink(dst, typ, rows)
	data := payload[9:]
	switch width {
	case 0:
		out.fill(0, rows, base)
	case 1:
		for i := 0; i < rows; i++ {
			out.set(i, int64(uint64(base)+uint64(data[i])))
		}
	case 2:
		for i := 0; i < rows; i++ {
			out.set(i, int64(uint64(base)+uint64(binary.LittleEndian.Uint16(data[2*i:]))))
		}
	case 4:
		for i := 0; i < rows; i++ {
			out.set(i, int64(uint64(base)+uint64(binary.LittleEndian.Uint32(data[4*i:]))))
		}
	default:
		for i := 0; i < rows; i++ {
			out.set(i, int64(uint64(base)+binary.LittleEndian.Uint64(data[8*i:])))
		}
	}
	return out.vector(), nil
}

// intDst is a pre-sized typed output buffer for the integer decoders,
// reusing the recycled vector's backing array when one is supplied.
type intDst struct {
	i32 []int32
	i64 []int64
}

// intSink prepares a length-rows output for typ, reusing dst's
// payload capacity when it matches.
func intSink(dst *vector.Vector, typ vector.Type, rows int) intDst {
	if typ == vector.Int32 {
		var buf []int32
		if dst != nil && dst.Type() == vector.Int32 && cap(dst.Int32s()) >= rows {
			buf = dst.Int32s()[:rows]
		} else {
			buf = make([]int32, rows)
		}
		return intDst{i32: buf}
	}
	var buf []int64
	if dst != nil && dst.Type() == vector.Int64 && cap(dst.Int64s()) >= rows {
		buf = dst.Int64s()[:rows]
	} else {
		buf = make([]int64, rows)
	}
	return intDst{i64: buf}
}

func (d intDst) set(i int, x int64) {
	if d.i32 != nil {
		d.i32[i] = int32(x)
		return
	}
	d.i64[i] = x
}

func (d intDst) fill(from, to int, x int64) {
	if d.i32 != nil {
		x32 := int32(x)
		for i := from; i < to; i++ {
			d.i32[i] = x32
		}
		return
	}
	for i := from; i < to; i++ {
		d.i64[i] = x
	}
}

func (d intDst) vector() *vector.Vector {
	if d.i32 != nil {
		return vector.FromInt32s(d.i32)
	}
	return vector.FromInt64s(d.i64)
}

// dictMaxEntries bounds dictionary size; columns with more distinct
// values than this stay raw.
const dictMaxEntries = 1 << 16

// Dict payload: uint32 entry count, entries as uint32 length + bytes,
// uint8 code width (1 or 2), then rows×width codes.
func encodeDict(v *vector.Vector) []byte {
	n := v.Len()
	idx := make(map[string]int)
	var entries []string
	codes := make([]int, n)
	for i, s := range v.Strings() {
		id, ok := idx[s]
		if !ok {
			if len(entries) >= dictMaxEntries {
				return nil
			}
			id = len(entries)
			idx[s] = id
			entries = append(entries, s)
		}
		codes[i] = id
	}
	codeWidth := 1
	if len(entries) > 1<<8 {
		codeWidth = 2
	}
	size := 4
	for _, e := range entries {
		size += 4 + len(e)
	}
	size += 1 + n*codeWidth
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e)))
		out = append(out, e...)
	}
	out = append(out, byte(codeWidth))
	for _, c := range codes {
		if codeWidth == 1 {
			out = append(out, byte(c))
		} else {
			out = binary.LittleEndian.AppendUint16(out, uint16(c))
		}
	}
	return out
}

func decodeDict(rows int, payload []byte, dst *vector.Vector) (*vector.Vector, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("dict payload too short (%d bytes)", len(payload))
	}
	entries := int(binary.LittleEndian.Uint32(payload))
	if entries <= 0 || entries > dictMaxEntries {
		return nil, fmt.Errorf("dict entry count %d invalid", entries)
	}
	off := 4
	dict := make([]string, entries)
	for e := range dict {
		if off+4 > len(payload) {
			return nil, fmt.Errorf("dict truncated at entry %d", e)
		}
		l := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if l < 0 || off+l > len(payload) {
			return nil, fmt.Errorf("dict truncated at entry %d", e)
		}
		dict[e] = string(payload[off : off+l])
		off += l
	}
	if off >= len(payload) {
		return nil, fmt.Errorf("dict payload missing code width")
	}
	codeWidth := int(payload[off])
	off++
	if codeWidth != 1 && codeWidth != 2 {
		return nil, fmt.Errorf("dict code width %d invalid", codeWidth)
	}
	if len(payload)-off != rows*codeWidth {
		return nil, fmt.Errorf("dict codes %d bytes for %d rows of width %d", len(payload)-off, rows, codeWidth)
	}
	var buf []string
	if dst != nil && dst.Type() == vector.String && cap(dst.Strings()) >= rows {
		buf = dst.Strings()[:rows]
	} else {
		buf = make([]string, rows)
	}
	for i := 0; i < rows; i++ {
		var c int
		if codeWidth == 1 {
			c = int(payload[off+i])
		} else {
			c = int(binary.LittleEndian.Uint16(payload[off+2*i:]))
		}
		if c >= entries {
			return nil, fmt.Errorf("dict code %d out of range (%d entries)", c, entries)
		}
		buf[i] = dict[c]
	}
	return vector.FromStrings(buf), nil
}

// Decode materializes the sealed column. Raw columns return their
// cached vector zero-copy (decoding it from the disk payload at most
// once). Compressed columns decode into dst's backing arrays when it
// is non-nil and type-compatible — a morsel worker under a filter
// passes its decode buffers here — and into fresh storage otherwise; either
// way the result is a new Vector header, so callers that recycle must
// track the returned vector (see ColumnStore.SegmentInto).
func (c *SealedColumn) Decode(dst *vector.Vector) (*vector.Vector, error) {
	switch c.Enc {
	case EncRaw:
		return c.rawVec()
	case EncRLE:
		return decodeRLE(c.Typ, c.Rows, c.payload, dst)
	case EncFOR:
		return decodeFOR(c.Typ, c.Rows, c.payload, dst)
	case EncDict:
		if c.Typ != vector.String {
			return nil, fmt.Errorf("dict encoding on %s column", c.Typ)
		}
		return decodeDict(c.Rows, c.payload, dst)
	}
	return nil, fmt.Errorf("unknown encoding %v", c.Enc)
}

// rawVec returns the raw vector, decoding the disk payload exactly
// once; concurrent scans share the result.
func (c *SealedColumn) rawVec() (*vector.Vector, error) {
	c.once.Do(func() {
		if c.vec != nil {
			return
		}
		v, err := decodeColumn(c.Typ, c.Rows, c.payload)
		if err != nil {
			c.lazyErr = err
			return
		}
		c.vec = v
	})
	return c.vec, c.lazyErr
}

// diskPayload returns the bytes persisted for this column: the
// compressed payload, or the raw storage encoding of the vector.
func (c *SealedColumn) diskPayload() ([]byte, error) {
	if c.payload != nil {
		return c.payload, nil
	}
	return encodeColumn(c.vec)
}
