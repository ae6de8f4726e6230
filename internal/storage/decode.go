package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"vexdb/internal/vector"
)

// ErrCorruptColumn is wrapped by every error a sealed column's payload
// raises when it is parsed: a payload the encoder cannot have written.
var ErrCorruptColumn = errors.New("corrupt column payload")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptColumn, fmt.Sprintf(format, args...))
}

// form is a compressed payload as parse found it: for FOR the base,
// the delta width and the deltas; for RLE the run count (the runs are
// read in place); for dict the entries, the code width and the codes,
// every one of them checked to name an entry.
type form struct {
	base  int64
	width int
	codes []byte
	runs  int
	dict  []string
}

// parsed checks the payload the first time any decode or kernel reads
// the column and remembers the outcome: a raw disk payload is decoded
// into vec, a compressed one into form. Afterwards the decoders and the
// code kernels cannot fail.
func (c *SealedColumn) parsed() error {
	c.once.Do(func() { c.parseErr = c.parse() })
	return c.parseErr
}

func (c *SealedColumn) parse() error {
	isInt := c.Typ == vector.Int32 || c.Typ == vector.Int64
	p := c.payload
	switch c.Enc {
	case EncRaw:
		if c.vec == nil {
			v, err := decodeColumn(c.Typ, c.Rows, p)
			if err != nil {
				return fmt.Errorf("%w: %w", ErrCorruptColumn, err)
			}
			c.vec = v
		}
		return nil
	case EncFOR:
		if !isInt {
			return corrupt("for encoding on %s column", c.Typ)
		}
		if len(p) < 9 {
			return corrupt("for payload too short (%d bytes)", len(p))
		}
		width := int(p[8])
		switch width {
		case 0, 1, 2, 4, 8:
		default:
			return corrupt("for delta width %d invalid", width)
		}
		if len(p) != 9+c.Rows*width {
			return corrupt("for payload %d bytes for %d rows of width %d", len(p), c.Rows, width)
		}
		c.form = form{base: int64(binary.LittleEndian.Uint64(p)), width: width, codes: p[9:]}
		return nil
	case EncRLE:
		if !isInt {
			return corrupt("rle encoding on %s column", c.Typ)
		}
		if len(p) < 4 {
			return corrupt("rle payload too short (%d bytes)", len(p))
		}
		runs := int(binary.LittleEndian.Uint32(p))
		if len(p) != 4+runs*12 {
			return corrupt("rle payload %d bytes for %d runs", len(p), runs)
		}
		total := 0
		for r := range runs {
			length := int(binary.LittleEndian.Uint32(p[4+12*r+8:]))
			if length <= 0 || total+length > c.Rows {
				return corrupt("rle run %d: length %d exceeds %d rows", r, length, c.Rows)
			}
			total += length
		}
		if total != c.Rows {
			return corrupt("rle runs cover %d of %d rows", total, c.Rows)
		}
		c.form = form{runs: runs}
		return nil
	case EncDict:
		if c.Typ != vector.String {
			return corrupt("dict encoding on %s column", c.Typ)
		}
		return c.parseDict()
	}
	return corrupt("unknown encoding %v", c.Enc)
}

func (c *SealedColumn) parseDict() error {
	p := c.payload
	if len(p) < 4 {
		return corrupt("dict payload too short (%d bytes)", len(p))
	}
	entries := int(binary.LittleEndian.Uint32(p))
	// Each entry takes at least its 4-byte length, so the count is
	// checked against the payload before anything is allocated for it.
	if entries <= 0 || entries > dictMaxEntries || 4*entries > len(p) {
		return corrupt("dict entry count %d invalid", entries)
	}
	off := 4
	dict := make([]string, entries)
	for e := range dict {
		if off+4 > len(p) {
			return corrupt("dict truncated at entry %d", e)
		}
		l := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if l > len(p)-off {
			return corrupt("dict truncated at entry %d", e)
		}
		dict[e] = string(p[off : off+l])
		off += l
	}
	if off >= len(p) {
		return corrupt("dict payload missing code width")
	}
	width := int(p[off])
	off++
	if width != 1 && width != 2 {
		return corrupt("dict code width %d invalid", width)
	}
	codes := p[off:]
	if len(codes) != c.Rows*width {
		return corrupt("dict codes %d bytes for %d rows of width %d", len(codes), c.Rows, width)
	}
	for i := range c.Rows {
		if code := codeAt(codes, width, i); code >= entries {
			return corrupt("dict code %d out of range (%d entries)", code, entries)
		}
	}
	c.form = form{width: width, codes: codes, dict: dict}
	return nil
}

// codeAt reads the code of row i.
func codeAt(codes []byte, width, i int) int {
	if width == 1 {
		return int(codes[i])
	}
	return int(binary.LittleEndian.Uint16(codes[2*i:]))
}

// Decode materializes the whole column; see DecodeSel.
func (c *SealedColumn) Decode(dst *vector.Vector) (*vector.Vector, error) {
	return c.DecodeSel(dst, nil)
}

// DecodeSel materializes the rows sel names, ascending, or every row
// when sel is nil: it equals Decode(nil).Gather(sel). A raw column
// returns its cached vector zero-copy when sel is nil and gathers from
// it otherwise. The result is written into dst's arrays when dst is
// non-nil, of the column's type and has the room — a scan passes the
// buffers its worker reuses — and into fresh storage otherwise; either
// way dst is given up, and a caller that recycles tracks the returned
// vector instead.
func (c *SealedColumn) DecodeSel(dst *vector.Vector, sel []int) (*vector.Vector, error) {
	if err := c.parsed(); err != nil {
		return nil, err
	}
	if dst != nil && (dst.Type() != c.Typ || dst == c.vec) {
		dst = nil
	}
	n := c.Rows
	if sel != nil {
		n = len(sel)
	}
	f := &c.form
	switch c.Enc {
	case EncRaw:
		if sel == nil {
			return c.vec, nil
		}
		if dst == nil {
			return c.vec.Gather(sel), nil
		}
		dst.Reset()
		dst.AppendGather(c.vec, sel)
		return dst, nil
	case EncFOR, EncRLE:
		if c.Typ == vector.Int32 {
			out := reuse(dst, n, (*vector.Vector).Int32s)
			decodeInts(c, out, sel)
			return vector.FromInt32s(out), nil
		}
		out := reuse(dst, n, (*vector.Vector).Int64s)
		decodeInts(c, out, sel)
		return vector.FromInt64s(out), nil
	}
	out := reuse(dst, n, (*vector.Vector).Strings)
	if f.width == 1 {
		decodeDict(out, f.dict, f.codes, sel)
	} else {
		decodeDict16(out, f.dict, f.codes, sel)
	}
	return vector.FromStrings(out), nil
}

// reuse returns a length-n slice over dst's array when dst (non-nil)
// has the room, a fresh one otherwise.
func reuse[T any](dst *vector.Vector, n int, arr func(*vector.Vector) []T) []T {
	if dst != nil {
		if a := arr(dst); cap(a) >= n {
			return a[:n]
		}
	}
	return make([]T, n)
}

// decodeInts runs an integer column's decoder.
func decodeInts[T int32 | int64](c *SealedColumn, out []T, sel []int) {
	if c.Enc == EncRLE {
		decodeRLE(out, c.payload, c.form.runs, sel)
	} else {
		decodeFOR(out, c.form.base, c.form.width, c.form.codes, sel)
	}
}

// decodeFOR writes base + delta for every row (sel nil) or the rows of
// sel into out, one loop per stored width. The sum wraps as int64 and
// an INTEGER column keeps its low 32 bits, as the encoder wrote them.
func decodeFOR[T int32 | int64](out []T, base int64, width int, b []byte, sel []int) {
	switch {
	case width == 0:
		for i := range out {
			out[i] = T(base)
		}
	case sel != nil:
		for j, r := range sel {
			out[j] = T(base + int64(deltaAt(b, width, r)))
		}
	case width == 1:
		b = b[:len(out)]
		for i, d := range b {
			out[i] = T(base + int64(d))
		}
	case width == 2:
		for i := range out {
			out[i] = T(base + int64(binary.LittleEndian.Uint16(b)))
			b = b[2:]
		}
	case width == 4:
		for i := range out {
			out[i] = T(base + int64(binary.LittleEndian.Uint32(b)))
			b = b[4:]
		}
	default:
		for i := range out {
			out[i] = T(base + int64(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		}
	}
}

// deltaAt reads the delta of row r at the given width.
func deltaAt(b []byte, width, r int) uint64 {
	switch width {
	case 1:
		return uint64(b[r])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[2*r:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[4*r:]))
	}
	return binary.LittleEndian.Uint64(b[8*r:])
}

// rleRun reads run r: its value and its length.
func rleRun(p []byte, r int) (int64, int) {
	off := 4 + 12*r
	return int64(binary.LittleEndian.Uint64(p[off:])), int(binary.LittleEndian.Uint32(p[off+8:]))
}

// decodeRLE writes every row (sel nil) or the rows of sel into out.
func decodeRLE[T int32 | int64](out []T, p []byte, runs int, sel []int) {
	end, j := 0, 0
	for r := 0; r < runs && (sel == nil || j < len(sel)); r++ {
		val, length := rleRun(p, r)
		v, start := T(val), end
		end += length
		if sel == nil {
			for i := start; i < end; i++ {
				out[i] = v
			}
			continue
		}
		for ; j < len(sel) && sel[j] < end; j++ {
			out[j] = v
		}
	}
}

// decodeDict writes the entry of every row (sel nil) or of the rows of
// sel into out, for one-byte codes.
func decodeDict(out, dict []string, codes []byte, sel []int) {
	if sel != nil {
		for j, r := range sel {
			out[j] = dict[codes[r]]
		}
		return
	}
	codes = codes[:len(out)]
	for i, code := range codes {
		out[i] = dict[code]
	}
}

// decodeDict16 is decodeDict for two-byte codes.
func decodeDict16(out, dict []string, codes []byte, sel []int) {
	if sel != nil {
		for j, r := range sel {
			out[j] = dict[binary.LittleEndian.Uint16(codes[2*r:])]
		}
		return
	}
	for i := range out {
		out[i] = dict[binary.LittleEndian.Uint16(codes)]
		codes = codes[2:]
	}
}

// KeepInts narrows sel, ascending rows of the column, to the rows whose
// value v lies in the cyclic interval lo, lo+1, …, lo+span of the
// column type's domain: INTEGER values wrap at 32 bits (lo is taken
// modulo 2^32, span must be below 2^32), BIGINT values at 64. Every
// comparison of an integer column with a constant is such an interval
// (`<>` included: it is everything but one value). The test runs on the
// codes: once per RLE run; on FOR deltas at their stored width, against
// lo − base, where an interval that holds every delta the width can
// store, or none of them, settles the column without a pass. It narrows
// sel in place and reports false, leaving sel alone, for a column whose
// codes it cannot read: raw, or not an integer column.
func (c *SealedColumn) KeepInts(sel []int, lo int64, span uint64) ([]int, bool, error) {
	if c.Enc != EncFOR && c.Enc != EncRLE {
		return sel, false, nil
	}
	if err := c.parsed(); err != nil {
		return nil, false, err
	}
	f := &c.form
	if c.Enc == EncRLE {
		if c.Typ == vector.Int32 {
			return keepRuns(sel, c.payload, f.runs, uint32(lo), uint32(span)), true, nil
		}
		return keepRuns(sel, c.payload, f.runs, uint64(lo), span), true, nil
	}
	dmax := uint64(math.MaxUint64)
	if f.width < 8 {
		dmax = 1<<(8*f.width) - 1
	}
	if c.Typ == vector.Int32 {
		return keepDeltas(sel, f.width, f.codes, uint32(lo)-uint32(f.base), uint32(span), uint32(min(dmax, math.MaxUint32))), true, nil
	}
	return keepDeltas(sel, f.width, f.codes, uint64(lo)-uint64(f.base), span, dmax), true, nil
}

// keepDeltas keeps the rows of sel whose delta d (its low 32 bits for
// U = uint32) satisfies d − dlo ≤ span in U's wrapping arithmetic.
// dmax is the largest delta the width can hold.
func keepDeltas[U uint32 | uint64](sel []int, width int, b []byte, dlo, span, dmax U) []int {
	// 0 sits at offset −dlo of the interval, so 0…dmax all inside means
	// the offsets −dlo…−dlo+dmax reach no further than span. An interval
	// that starts past dmax and does not wrap round to 0 misses them all.
	if off := -dlo; off <= span && span-off >= dmax {
		return sel
	}
	if dlo > dmax && dlo+span >= dlo {
		return sel[:0]
	}
	k := 0
	switch width {
	case 1:
		for _, r := range sel {
			if U(b[r])-dlo <= span {
				sel[k] = r
				k++
			}
		}
	case 2:
		for _, r := range sel {
			if U(binary.LittleEndian.Uint16(b[2*r:]))-dlo <= span {
				sel[k] = r
				k++
			}
		}
	case 4:
		for _, r := range sel {
			if U(binary.LittleEndian.Uint32(b[4*r:]))-dlo <= span {
				sel[k] = r
				k++
			}
		}
	default:
		for _, r := range sel {
			if U(binary.LittleEndian.Uint64(b[8*r:]))-dlo <= span {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

// keepRuns keeps the rows of sel whose run's value v (its low 32 bits
// for U = uint32) satisfies v − lo ≤ span, testing each run once.
func keepRuns[U uint32 | uint64](sel []int, p []byte, runs int, lo, span U) []int {
	k, i, end := 0, 0, 0
	for r := 0; r < runs && i < len(sel); r++ {
		val, length := rleRun(p, r)
		end += length
		in := U(val)-lo <= span
		for ; i < len(sel) && sel[i] < end; i++ {
			if in {
				sel[k] = sel[i]
				k++
			}
		}
	}
	return sel[:k]
}

// KeepStrings narrows sel, ascending rows of the column, to the rows
// whose value satisfies match, calling match once per dictionary entry
// and then selecting rows by code. It reports false, leaving sel alone,
// for a column that is not dict-encoded.
func (c *SealedColumn) KeepStrings(sel []int, match func(string) bool) ([]int, bool, error) {
	if c.Enc != EncDict {
		return sel, false, nil
	}
	if err := c.parsed(); err != nil {
		return nil, false, err
	}
	f := &c.form
	hit := make([]bool, len(f.dict))
	hits := 0
	for e, s := range f.dict {
		if hit[e] = match(s); hit[e] {
			hits++
		}
	}
	switch hits {
	case 0:
		return sel[:0], true, nil
	case len(f.dict):
		return sel, true, nil
	}
	k := 0
	for _, r := range sel {
		if hit[codeAt(f.codes, f.width, r)] {
			sel[k] = r
			k++
		}
	}
	return sel[:k], true, nil
}
