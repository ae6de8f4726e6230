package vector

import (
	"fmt"
	"math"
	"strconv"
)

// Value is a single dynamically typed SQL value. The zero Value is the
// SQL NULL. Values appear at the engine boundary (literals, UDF scalar
// parameters, result inspection); the hot paths operate on Vectors.
type Value struct {
	typ  Type
	null bool

	b   bool
	i64 int64 // backs Int32 and Int64
	f64 float64
	s   string
	bs  []byte
}

// Null returns the SQL NULL value. NULL carries no type; it compares
// unequal to everything and propagates through expressions.
func Null() Value { return Value{null: true} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value { return Value{typ: Bool, b: v} }

// NewInt32 returns an INTEGER value.
func NewInt32(v int32) Value { return Value{typ: Int32, i64: int64(v)} }

// NewInt64 returns a BIGINT value.
func NewInt64(v int64) Value { return Value{typ: Int64, i64: v} }

// NewFloat64 returns a DOUBLE value.
func NewFloat64(v float64) Value { return Value{typ: Float64, f64: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{typ: String, s: v} }

// NewBlob returns a BLOB value. The byte slice is not copied.
func NewBlob(v []byte) Value { return Value{typ: Blob, bs: v} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.null }

// Type returns the value's type, or Invalid for NULL.
func (v Value) Type() Type {
	if v.null {
		return Invalid
	}
	return v.typ
}

// Bool returns the boolean payload. It is valid only for Bool values.
func (v Value) Bool() bool { return v.b }

// Int64 returns the integer payload widened to 64 bits. It is valid
// for Int32 and Int64 values.
func (v Value) Int64() int64 { return v.i64 }

// Float64 returns the floating point payload. For integer values it
// returns the integer converted to float64.
func (v Value) Float64() float64 {
	if v.typ == Int32 || v.typ == Int64 {
		return float64(v.i64)
	}
	return v.f64
}

// Str returns the string payload. It is valid only for String values.
func (v Value) Str() string { return v.s }

// Bytes returns the blob payload. It is valid only for Blob values.
func (v Value) Bytes() []byte { return v.bs }

// String renders the value the way the SQL shell prints it.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.typ {
	case Bool:
		if v.b {
			return "true"
		}
		return "false"
	case Int32, Int64:
		return strconv.FormatInt(v.i64, 10)
	case Float64:
		return strconv.FormatFloat(v.f64, 'g', -1, 64)
	case String:
		return v.s
	case Blob:
		return fmt.Sprintf("<blob %d bytes>", len(v.bs))
	default:
		return "<invalid>"
	}
}

// Equal reports SQL equality between two values. NULL is not equal to
// anything, including NULL. Numeric values compare across integer and
// floating point types.
func (v Value) Equal(o Value) bool {
	if v.null || o.null {
		return false
	}
	if v.typ.IsNumeric() && o.typ.IsNumeric() {
		if v.typ == Float64 || o.typ == Float64 {
			return v.Float64() == o.Float64()
		}
		return v.i64 == o.i64
	}
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case Bool:
		return v.b == o.b
	case String:
		return v.s == o.s
	case Blob:
		return string(v.bs) == string(o.bs)
	}
	return false
}

// Cast converts the value to the target type following SQL cast
// semantics. NULL casts to NULL of any type.
func (v Value) Cast(to Type) (Value, error) {
	if v.null {
		return Null(), nil
	}
	if v.typ == to {
		return v, nil
	}
	switch to {
	case Bool:
		switch v.typ {
		case Int32, Int64:
			return NewBool(v.i64 != 0), nil
		}
	case Int32:
		switch v.typ {
		case Int64:
			if v.i64 < math.MinInt32 || v.i64 > math.MaxInt32 {
				return Null(), v.outOfRange(to)
			}
			return NewInt32(int32(v.i64)), nil
		case Float64:
			if t := math.Trunc(v.f64); !(t >= math.MinInt32 && t <= math.MaxInt32) {
				return Null(), v.outOfRange(to)
			}
			return NewInt32(int32(v.f64)), nil
		case Bool:
			if v.b {
				return NewInt32(1), nil
			}
			return NewInt32(0), nil
		case String:
			n, err := strconv.ParseInt(v.s, 10, 32)
			if err != nil {
				return Null(), fmt.Errorf("cast %q to INTEGER: %w", v.s, err)
			}
			return NewInt32(int32(n)), nil
		}
	case Int64:
		switch v.typ {
		case Int32:
			return NewInt64(v.i64), nil
		case Float64:
			// -2^63 and 2^63 are exact DOUBLEs; the range is [-2^63, 2^63).
			if t := math.Trunc(v.f64); !(t >= math.MinInt64 && t < -math.MinInt64) {
				return Null(), v.outOfRange(to)
			}
			return NewInt64(int64(v.f64)), nil
		case Bool:
			if v.b {
				return NewInt64(1), nil
			}
			return NewInt64(0), nil
		case String:
			n, err := strconv.ParseInt(v.s, 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("cast %q to BIGINT: %w", v.s, err)
			}
			return NewInt64(n), nil
		}
	case Float64:
		switch v.typ {
		case Int32, Int64:
			return NewFloat64(float64(v.i64)), nil
		case String:
			f, err := strconv.ParseFloat(v.s, 64)
			if err != nil {
				return Null(), fmt.Errorf("cast %q to DOUBLE: %w", v.s, err)
			}
			return NewFloat64(f), nil
		}
	case String:
		return NewString(v.String()), nil
	case Blob:
		if v.typ == String {
			return NewBlob([]byte(v.s)), nil
		}
	}
	return Null(), fmt.Errorf("unsupported cast from %s to %s", v.typ, to)
}

// outOfRange is the error of a numeric cast whose value the target type
// cannot hold: a BIGINT past INTEGER's range, or a DOUBLE that is NaN,
// infinite or past the target's range once truncated toward zero.
func (v Value) outOfRange(to Type) error {
	return fmt.Errorf("cast %s to %s: out of range", v.String(), to)
}

// Compare orders two non-NULL values of comparable types, returning
// -1, 0 or +1. Numeric types compare across widths. It returns an
// error for incomparable type pairs.
//
// Floating point comparison is a total order: NaN compares greater
// than every non-NaN value (so it sorts last ascending, first
// descending) and equal to itself. IEEE comparison makes NaN
// incomparable, which is a non-transitive less-function under
// sort.Slice — ORDER BY over NaN-bearing data would be
// nondeterministic without this.
func (v Value) Compare(o Value) (int, error) {
	if v.null || o.null {
		return 0, fmt.Errorf("cannot compare NULL values")
	}
	if v.typ.IsNumeric() && o.typ.IsNumeric() {
		if v.typ == Float64 || o.typ == Float64 {
			a, b := v.Float64(), o.Float64()
			an, bn := math.IsNaN(a), math.IsNaN(b)
			switch {
			case an && bn:
				return 0, nil
			case an:
				return 1, nil
			case bn:
				return -1, nil
			case a < b:
				return -1, nil
			case a > b:
				return 1, nil
			}
			return 0, nil
		}
		switch {
		case v.i64 < o.i64:
			return -1, nil
		case v.i64 > o.i64:
			return 1, nil
		}
		return 0, nil
	}
	if v.typ != o.typ {
		return 0, fmt.Errorf("cannot compare %s with %s", v.typ, o.typ)
	}
	switch v.typ {
	case String:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		}
		return 0, nil
	case Bool:
		switch {
		case !v.b && o.b:
			return -1, nil
		case v.b && !o.b:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("type %s is not orderable", v.typ)
}
