// The ordering kernel's key codes and record sort: every ordered path
// compares order-preserving uint64 codes first and calls the generic
// comparator (compareKeyRows) only where two codes are equal and
// equality does not settle the key.
package exec

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// nullCode is a NULL cell's code before the DESC complement: NULLs
// sort last ascending, first descending. BIGINT's MaxInt64 shares it,
// which is why an equal pair of NULL codes is never decisive.
const nullCode = ^uint64(0)

// sortCoder maps the cells of each sort key to uint64 codes whose
// unsigned order never contradicts compareKeyRows on that key: a
// smaller code means the row sorts first, equal codes mean either
// equal cells (decides) or an undecided pair the comparator settles.
//
//	BOOLEAN  0 / 1
//	INTEGER, BIGINT  the value as int64, sign bit flipped
//	DOUBLE   IEEE bits made monotone; -0 coded as +0, every NaN as one
//	         code above +Inf
//	VARCHAR  the first 7 bytes big-endian, then min(len, 8): strings
//	         under 8 bytes are decided by their code
//	NULL     nullCode; DESC complements every code
//
// A key vector is of its planned type (plan.Evaluate). A BLOB key is
// not coded: every pair falls through to the comparator.
type sortCoder struct {
	keys   []plan.SortKey
	colKey []int // key i -> data column index for ColRef keys, else -1
}

func newSortCoder(keys []plan.SortKey) *sortCoder {
	c := &sortCoder{keys: keys, colKey: make([]int, len(keys))}
	for i, k := range keys {
		c.colKey[i] = -1
		if cr, ok := k.Expr.(*plan.ColRef); ok {
			c.colKey[i] = cr.Idx
		}
	}
	return c
}

// encode returns key k's codes for the rows of v in dst's storage, or
// nil when v cannot be coded.
func (c *sortCoder) encode(k int, v *vector.Vector, dst []uint64) []uint64 {
	out := slices.Grow(dst[:0], v.Len())[:v.Len()]
	switch v.Type() {
	case vector.Bool:
		for i, x := range v.Bools() {
			out[i] = 0
			if x {
				out[i] = 1
			}
		}
	case vector.Int32:
		for i, x := range v.Int32s() {
			out[i] = uint64(int64(x)) ^ 1<<63
		}
	case vector.Int64:
		for i, x := range v.Int64s() {
			out[i] = uint64(x) ^ 1<<63
		}
	case vector.Float64:
		for i, x := range v.Float64s() {
			out[i] = floatCode(x)
		}
	case vector.String:
		var buf [8]byte
		for i, s := range v.Strings() {
			buf = [8]byte{7: byte(min(len(s), 8))}
			copy(buf[:7], s)
			out[i] = binary.BigEndian.Uint64(buf[:])
		}
	default:
		return nil
	}
	if nulls := v.Nulls(); nulls != nil {
		for i, null := range nulls {
			if null {
				out[i] = nullCode
			}
		}
	}
	if c.keys[k].Desc {
		for i := range out {
			out[i] = ^out[i]
		}
	}
	return out
}

// floatCode is the DOUBLE code: the total order of Value.Compare (NaN
// greatest and equal to itself, the two zeros tied) as unsigned order.
func floatCode(x float64) uint64 {
	b := math.Float64bits(x)
	if x == 0 {
		b = 0 // -0 ties +0
	} else if x != x {
		b = 0x7FF8 << 48
	}
	// Negative values flip every bit, the others the sign bit.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// decides reports whether two cells of key k that share code are
// certainly equal, so the comparison may move on to the next key.
func (c *sortCoder) decides(k int, code uint64) bool {
	if c.keys[k].Desc {
		code = ^code
	}
	if c.keys[k].Expr.Type() == vector.String {
		return code&0xFF < 8
	}
	return code != nullCode
}

// sortRec is one row of a run being sorted: the code of the key
// currently being ordered and the row's index in the buffer.
type sortRec struct {
	code uint64
	row  int
}

// radixMin is the run length from which LSD radix passes beat a
// comparison sort of the records.
const radixMin = 512

// sortRecs orders recs by code: a comparison sort for short runs, else
// stable counting passes, 11 bits at a time, over the bits that vary.
// tmp is scratch of at least len(recs).
func sortRecs(recs, tmp []sortRec) {
	var diff uint64
	sorted := true
	for i := 1; i < len(recs); i++ {
		diff |= recs[i].code ^ recs[0].code
		sorted = sorted && recs[i-1].code <= recs[i].code
	}
	if sorted {
		return
	}
	if len(recs) < radixMin {
		slices.SortFunc(recs, func(a, b sortRec) int { return cmp.Compare(a.code, b.code) })
		return
	}
	src, dst := recs, tmp[:len(recs)]
	for shift := 0; diff>>shift != 0; shift += 11 {
		shift += bits.TrailingZeros64(diff >> shift) // a digit starts at a bit that differs
		var count [1 << 11]int
		for _, r := range src {
			count[r.code>>shift&0x7FF]++
		}
		sum := 0
		for b, n := range count {
			count[b], sum = sum, sum+n
		}
		for _, r := range src {
			b := r.code >> shift & 0x7FF
			dst[count[b]] = r
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}
