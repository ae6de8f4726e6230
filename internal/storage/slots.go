package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vexdb/internal/vector"
)

// ErrOutOfDomain is wrapped by the error IntSlots returns for a value
// outside the domain it was handed: the statistics the domain was read
// from understate the column, as in a damaged or hand-edited image.
var ErrOutOfDomain = errors.New("value outside its column's statistics")

// IntSlots adds stride × (v − lo) to ids[j], v being the value of row
// sel[j] of an integer column, and stride × n where that row is NULL:
// the row's slot in a domain of the n values lo, lo+1, …, lo+n−1 plus
// NULL. The slot is computed on the codes — a FOR delta plus base − lo,
// an RLE run's value once per run — and from the values of a raw
// column. A value outside the domain returns an error wrapping
// ErrOutOfDomain, with ids partly updated. lo+n−1 must not pass the
// column type's largest value.
func (c *SealedColumn) IntSlots(ids []int32, sel []int, lo int64, n uint64, stride int32) error {
	if err := c.parsed(); err != nil {
		return err
	}
	var ok bool
	switch c.Typ {
	case vector.Int32:
		ok = intSlots(c, ids, sel, lo, n, stride, (*vector.Vector).Int32s)
	case vector.Int64:
		ok = intSlots(c, ids, sel, lo, n, stride, (*vector.Vector).Int64s)
	default:
		return fmt.Errorf("storage: integer slots of a %s column", c.Typ)
	}
	if !ok {
		return fmt.Errorf("%w: a %s value outside the %d from %d on", ErrOutOfDomain, c.Typ, n, lo)
	}
	return nil
}

// intSlots is IntSlots for a column of type T; it reports false for a
// value outside the domain. A slot is v − lo in uint64's wrapping
// arithmetic, so a value below lo lands past n like one above: lo+n−1
// does not overflow, so no wrapped difference of a smaller value comes
// back below n.
func intSlots[T int32 | int64](c *SealedColumn, ids []int32, sel []int, lo int64, n uint64, stride int32, vals func(*vector.Vector) []T) bool {
	slot := func(v T) uint64 { return uint64(int64(v)) - uint64(lo) }
	f := &c.form
	switch c.Enc {
	case EncRaw:
		xs, nulls := vals(c.vec), c.vec.Nulls()
		for j, r := range sel {
			s := n
			if nulls == nil || !nulls[r] {
				if s = slot(xs[r]); s >= n {
					return false
				}
			}
			ids[j] += int32(s) * stride
		}
	case EncRLE:
		end, j := 0, 0
		for r := 0; r < f.runs && j < len(sel); r++ {
			val, length := rleRun(c.payload, r)
			end += length
			s, first := slot(T(val)), j
			for ; j < len(sel) && sel[j] < end; j++ {
				ids[j] += int32(s) * stride
			}
			if j > first && s >= n {
				return false
			}
		}
	default:
		// An INTEGER column keeps the low 32 bits of base + delta, as
		// decodeFOR does.
		base, b := f.base, f.codes
		at := func(d uint64) uint64 { return slot(T(base + int64(d))) }
		switch f.width {
		case 0:
			s := at(0)
			if s >= n {
				return len(sel) == 0
			}
			for j := range sel {
				ids[j] += int32(s) * stride
			}
		case 1:
			for j, r := range sel {
				s := at(uint64(b[r]))
				if s >= n {
					return false
				}
				ids[j] += int32(s) * stride
			}
		case 2:
			for j, r := range sel {
				s := at(uint64(binary.LittleEndian.Uint16(b[2*r:])))
				if s >= n {
					return false
				}
				ids[j] += int32(s) * stride
			}
		case 4:
			for j, r := range sel {
				s := at(uint64(binary.LittleEndian.Uint32(b[4*r:])))
				if s >= n {
					return false
				}
				ids[j] += int32(s) * stride
			}
		default:
			for j, r := range sel {
				s := at(binary.LittleEndian.Uint64(b[8*r:]))
				if s >= n {
					return false
				}
				ids[j] += int32(s) * stride
			}
		}
	}
	return true
}

// Dict returns the entries of a dict-encoded column, which its codes
// index, and nil for a column in any other encoding.
func (c *SealedColumn) Dict() ([]string, error) {
	if c.Enc != EncDict {
		return nil, nil
	}
	if err := c.parsed(); err != nil {
		return nil, err
	}
	return c.form.dict, nil
}

// DictSlots adds stride × remap[code] to ids[j], code being the
// dictionary code of row sel[j] of a dict-encoded column: remap gives
// each entry of Dict its slot, so the rows are never decoded.
func (c *SealedColumn) DictSlots(ids []int32, sel []int, remap []int32, stride int32) error {
	if c.Enc != EncDict {
		return fmt.Errorf("storage: dictionary slots of a %s column", c.Enc)
	}
	if err := c.parsed(); err != nil {
		return err
	}
	if len(remap) != len(c.form.dict) {
		return fmt.Errorf("storage: %d-entry dictionary slots through a %d-entry remap", len(c.form.dict), len(remap))
	}
	codes := c.form.codes
	if c.form.width == 1 {
		for j, r := range sel {
			ids[j] += remap[codes[r]] * stride
		}
		return nil
	}
	for j, r := range sel {
		ids[j] += remap[binary.LittleEndian.Uint16(codes[2*r:])] * stride
	}
	return nil
}
