package storage

import (
	"cmp"
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

// computeZone scans a column once for min/max and null count. Every
// orderable type takes a typed loop, so no row is boxed into a
// vector.Value: sealing runs on the append hot path. Float64 NaNs are
// excluded from the bounds: NaN compares false against everything, so a
// NaN row can never satisfy the comparison predicates pruning is
// allowed to act on (=, <, <=, >, >=). VARCHAR bounds are in Go string
// order, which is Value.Compare's order for strings.
func computeZone(v *vector.Vector) ZoneMap {
	n := v.Len()
	z := ZoneMap{Rows: n}
	nulls := v.Nulls()
	if nulls != nil {
		for _, null := range nulls[:n] {
			if null {
				z.NullCount++
			}
		}
		if z.NullCount == 0 {
			nulls = nil
		}
	}
	switch v.Type() {
	case vector.Int32:
		if mn, mx, ok := zoneBounds(v.Int32s(), nulls); ok {
			z.Min, z.Max = vector.NewInt32(mn), vector.NewInt32(mx)
		}
	case vector.Int64:
		if mn, mx, ok := zoneBounds(v.Int64s(), nulls); ok {
			z.Min, z.Max = vector.NewInt64(mn), vector.NewInt64(mx)
		}
	case vector.Float64:
		if mn, mx, ok := zoneBounds(v.Float64s(), nulls); ok {
			z.Min, z.Max = vector.NewFloat64(mn), vector.NewFloat64(mx)
		}
	case vector.String:
		switch mn, mx, ok := zoneBounds(v.Strings(), nulls); {
		case !ok:
		case len(mn) > zoneMaxString || len(mx) > zoneMaxString:
			z.Min, z.Max = vector.Null(), vector.Null()
		default:
			z.Min, z.Max = vector.NewString(mn), vector.NewString(mx)
		}
	case vector.Bool:
		var seen [2]bool // seen[0]: a false row, seen[1]: a true one
		for i, b := range v.Bools() {
			if nulls == nil || !nulls[i] {
				seen[b2i(b)] = true
			}
		}
		if seen[0] || seen[1] {
			z.Min, z.Max = vector.NewBool(!seen[0]), vector.NewBool(seen[1])
		}
	}
	return z
}

// zoneBounds returns the least and greatest of the xs that nulls (nil:
// none) does not mark and that are not NaN, and whether there is one.
func zoneBounds[T cmp.Ordered](xs []T, nulls []bool) (mn, mx T, seen bool) {
	for i, x := range xs {
		switch {
		case nulls != nil && nulls[i]:
		case !seen:
			mn, mx, seen = x, x, x == x // a NaN never starts the bounds
		case x < mn: // a NaN is neither less nor greater than a bound
			mn = x
		case x > mx:
			mx = x
		}
	}
	return mn, mx, seen
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
	// or filled lazily (exactly once, by parse) from payload for raw
	// columns loaded from disk. Compressed columns never cache a
	// decoded vector — that would defeat the compression.
	vec *vector.Vector
	// once guards parse, whose findings every decode and code kernel
	// reads: form for a compressed payload, parseErr for a corrupt one.
	once     sync.Once
	form     form
	parseErr error
	// logicalBytes estimates the uncompressed payload size for stats.
	logicalBytes int
}

// sealColumn freezes one column vector into its sealed form, choosing
// the smallest encoding. With compress disabled the column stays raw
// and carries no zone map, which is the reference path differential
// tests compare against.
func sealColumn(v *vector.Vector, compress bool) *SealedColumn {
	c := rawColumn(v)
	c.logicalBytes = rawSizeOf(v)
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

// rawColumn wraps v as a raw column without statistics.
func rawColumn(v *vector.Vector) *SealedColumn {
	return &SealedColumn{Enc: EncRaw, Typ: v.Type(), Rows: v.Len(), vec: v}
}

// SealColumn seals v in encoding enc whether or not it is the
// smallest, with the zone map and sketch a compressed table gives it.
// It fails where enc does not apply: a compressed encoding on an empty
// column or one with NULLs, FOR or RLE on a non-integer column, dict on
// a non-VARCHAR one or past 65 536 distinct values.
func SealColumn(v *vector.Vector, enc Encoding) (*SealedColumn, error) {
	c := sealColumn(v, false)
	c.Zone, c.Sketch = computeZone(v), computeSketch(v)
	if enc == EncRaw {
		return c, nil
	}
	if v.HasNulls() || v.Len() == 0 {
		return nil, fmt.Errorf("storage: %s needs a non-empty column without NULLs", enc)
	}
	var p []byte
	switch isInt := v.Type() == vector.Int32 || v.Type() == vector.Int64; {
	case enc == EncFOR && isInt:
		minV, maxV, _ := intShape(v)
		p = encodeFOR(v, minV, deltaWidth(uint64(maxV)-uint64(minV)))
	case enc == EncRLE && isInt:
		_, _, runs := intShape(v)
		p = encodeRLE(v, runs)
	case enc == EncDict && v.Type() == vector.String:
		p = encodeDict(v)
	}
	if p == nil {
		return nil, fmt.Errorf("storage: encoding %s does not apply to this %s column", enc, v.Type())
	}
	c.Enc, c.payload, c.vec = enc, p, nil
	return c, nil
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

// intShape returns a NULL-free integer column's least and greatest
// value and its number of runs of equal values.
func intShape(v *vector.Vector) (minV, maxV int64, runs int) {
	minV, maxV = intAt(v, 0), intAt(v, 0)
	runs = 1
	prev := minV
	for i := 1; i < v.Len(); i++ {
		x := intAt(v, i)
		if x != prev {
			runs++
			prev = x
		}
		minV, maxV = min(minV, x), max(maxV, x)
	}
	return minV, maxV, runs
}

// encodeInts picks between RLE and FOR for a NULL-free integer
// column, returning (nil, EncRaw) when neither applies.
func encodeInts(v *vector.Vector) ([]byte, Encoding) {
	n := v.Len()
	minV, maxV, runs := intShape(v)
	// uint64 subtraction is exact for maxV >= minV even when the
	// signed difference overflows.
	forWidth := deltaWidth(uint64(maxV) - uint64(minV))
	rleSize := 4 + runs*12
	forSize := 9 + n*forWidth
	rawSize := n * v.Type().FixedWidth()
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
