package vector

import (
	"fmt"
	"math"
	"slices"
)

// Vector is a single column of values of one type with an optional
// null mask. Exactly one of the typed payload slices is in use,
// selected by the vector's type. The zero Vector is not usable; create
// vectors with New or the typed constructors.
type Vector struct {
	typ    Type
	length int
	// nulls is nil when the vector contains no NULLs. When non-nil it
	// has the vector's length and nulls[i] marks row i as NULL.
	nulls []bool

	bools []bool
	i32   []int32
	i64   []int64
	f64   []float64
	strs  []string
	blobs [][]byte
}

// New returns an empty vector of the given type with capacity hint n.
func New(t Type, n int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case Bool:
		v.bools = make([]bool, 0, n)
	case Int32:
		v.i32 = make([]int32, 0, n)
	case Int64:
		v.i64 = make([]int64, 0, n)
	case Float64:
		v.f64 = make([]float64, 0, n)
	case String:
		v.strs = make([]string, 0, n)
	case Blob:
		v.blobs = make([][]byte, 0, n)
	default:
		panic(fmt.Sprintf("vector.New: invalid type %v", t))
	}
	return v
}

// FromBools wraps a bool slice as a Bool vector without copying.
func FromBools(data []bool) *Vector {
	return &Vector{typ: Bool, length: len(data), bools: data}
}

// FromInt32s wraps an int32 slice as an Int32 vector without copying.
func FromInt32s(data []int32) *Vector {
	return &Vector{typ: Int32, length: len(data), i32: data}
}

// FromInt64s wraps an int64 slice as an Int64 vector without copying.
func FromInt64s(data []int64) *Vector {
	return &Vector{typ: Int64, length: len(data), i64: data}
}

// FromFloat64s wraps a float64 slice as a Float64 vector without copying.
func FromFloat64s(data []float64) *Vector {
	return &Vector{typ: Float64, length: len(data), f64: data}
}

// FromStrings wraps a string slice as a String vector without copying.
func FromStrings(data []string) *Vector {
	return &Vector{typ: String, length: len(data), strs: data}
}

// FromBlobs wraps a [][]byte slice as a Blob vector without copying.
func FromBlobs(data [][]byte) *Vector {
	return &Vector{typ: Blob, length: len(data), blobs: data}
}

// Constant returns a vector of n copies of val. A NULL val, which has
// no type of its own, yields an all-NULL vector of type typ. The
// payload is bulk-filled rather than appended value by value.
func Constant(val Value, n int, typ Type) *Vector {
	if val.IsNull() {
		v := newZeroed(typ, n)
		v.nulls = make([]bool, n)
		for i := range v.nulls {
			v.nulls[i] = true
		}
		return v
	}
	t := val.Type()
	v := newZeroed(t, n)
	switch t {
	case Bool:
		x := val.Bool()
		for i := range v.bools {
			v.bools[i] = x
		}
	case Int32:
		x := int32(val.Int64())
		for i := range v.i32 {
			v.i32[i] = x
		}
	case Int64:
		x := val.Int64()
		for i := range v.i64 {
			v.i64[i] = x
		}
	case Float64:
		x := val.Float64()
		for i := range v.f64 {
			v.f64[i] = x
		}
	case String:
		x := val.Str()
		for i := range v.strs {
			v.strs[i] = x
		}
	case Blob:
		x := val.Bytes()
		for i := range v.blobs {
			v.blobs[i] = x
		}
	}
	return v
}

// newZeroed returns a vector of n zero values of type t.
func newZeroed(t Type, n int) *Vector {
	v := &Vector{typ: t, length: n}
	switch t {
	case Bool:
		v.bools = make([]bool, n)
	case Int32:
		v.i32 = make([]int32, n)
	case Int64:
		v.i64 = make([]int64, n)
	case Float64:
		v.f64 = make([]float64, n)
	case String:
		v.strs = make([]string, n)
	case Blob:
		v.blobs = make([][]byte, n)
	default:
		panic(fmt.Sprintf("vector.newZeroed: invalid type %v", t))
	}
	return v
}

// Type returns the vector's type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of rows.
func (v *Vector) Len() int { return v.length }

// HasNulls reports whether the vector contains at least one NULL.
func (v *Vector) HasNulls() bool {
	if v.nulls == nil {
		return false
	}
	for _, n := range v.nulls {
		if n {
			return true
		}
	}
	return false
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	return v.nulls != nil && v.nulls[i]
}

// SetNull marks row i as NULL.
func (v *Vector) SetNull(i int) {
	v.ensureNulls()
	v.nulls[i] = true
}

func (v *Vector) ensureNulls() {
	if v.nulls == nil {
		v.nulls = make([]bool, v.length, max(v.length, 8))
	}
	for len(v.nulls) < v.length {
		v.nulls = append(v.nulls, false)
	}
}

// Bools returns the Bool payload. The slice aliases vector storage.
func (v *Vector) Bools() []bool { return v.bools }

// Int32s returns the Int32 payload. The slice aliases vector storage.
func (v *Vector) Int32s() []int32 { return v.i32 }

// Int64s returns the Int64 payload. The slice aliases vector storage.
func (v *Vector) Int64s() []int64 { return v.i64 }

// Float64s returns the Float64 payload. The slice aliases vector storage.
func (v *Vector) Float64s() []float64 { return v.f64 }

// Strings returns the String payload. The slice aliases vector storage.
func (v *Vector) Strings() []string { return v.strs }

// Blobs returns the Blob payload. The slice aliases vector storage.
func (v *Vector) Blobs() [][]byte { return v.blobs }

// Nulls returns the null mask, or nil when the vector has no NULLs.
func (v *Vector) Nulls() []bool { return v.nulls }

// Get returns the value at row i.
func (v *Vector) Get(i int) Value {
	if v.IsNull(i) {
		return Null()
	}
	switch v.typ {
	case Bool:
		return NewBool(v.bools[i])
	case Int32:
		return NewInt32(v.i32[i])
	case Int64:
		return NewInt64(v.i64[i])
	case Float64:
		return NewFloat64(v.f64[i])
	case String:
		return NewString(v.strs[i])
	case Blob:
		return NewBlob(v.blobs[i])
	}
	return Null()
}

// AppendValue appends val to the vector, casting numerics if needed.
// Appending NULL grows the null mask.
func (v *Vector) AppendValue(val Value) {
	if val.IsNull() {
		v.appendZero()
		v.ensureNulls()
		v.nulls[v.length-1] = true
		return
	}
	switch v.typ {
	case Bool:
		v.bools = append(v.bools, val.Bool())
	case Int32:
		v.i32 = append(v.i32, int32(val.Int64()))
	case Int64:
		v.i64 = append(v.i64, val.Int64())
	case Float64:
		v.f64 = append(v.f64, val.Float64())
	case String:
		v.strs = append(v.strs, val.Str())
	case Blob:
		v.blobs = append(v.blobs, val.Bytes())
	}
	v.length++
	if v.nulls != nil {
		v.nulls = append(v.nulls, false)
	}
}

func (v *Vector) appendZero() {
	switch v.typ {
	case Bool:
		v.bools = append(v.bools, false)
	case Int32:
		v.i32 = append(v.i32, 0)
	case Int64:
		v.i64 = append(v.i64, 0)
	case Float64:
		v.f64 = append(v.f64, 0)
	case String:
		v.strs = append(v.strs, "")
	case Blob:
		v.blobs = append(v.blobs, nil)
	}
	v.length++
}

// AppendRowFrom appends row i of src, which must have the same type,
// without boxing the value. It is the row-at-a-time hot path of merge
// operators.
func (v *Vector) AppendRowFrom(src *Vector, i int) {
	if src.nulls != nil && src.nulls[i] {
		v.appendZero()
		v.ensureNulls()
		v.nulls[v.length-1] = true
		return
	}
	switch v.typ {
	case Bool:
		v.bools = append(v.bools, src.bools[i])
	case Int32:
		v.i32 = append(v.i32, src.i32[i])
	case Int64:
		v.i64 = append(v.i64, src.i64[i])
	case Float64:
		v.f64 = append(v.f64, src.f64[i])
	case String:
		v.strs = append(v.strs, src.strs[i])
	case Blob:
		v.blobs = append(v.blobs, src.blobs[i])
	}
	v.length++
	if v.nulls != nil {
		v.nulls = append(v.nulls, false)
	}
}

// AppendVector appends all rows of o (which must have the same type).
func (v *Vector) AppendVector(o *Vector) {
	if v.typ != o.typ {
		panic(fmt.Sprintf("AppendVector: type mismatch %v vs %v", v.typ, o.typ))
	}
	switch v.typ {
	case Bool:
		v.bools = append(v.bools, o.bools...)
	case Int32:
		v.i32 = append(v.i32, o.i32...)
	case Int64:
		v.i64 = append(v.i64, o.i64...)
	case Float64:
		v.f64 = append(v.f64, o.f64...)
	case String:
		v.strs = append(v.strs, o.strs...)
	case Blob:
		v.blobs = append(v.blobs, o.blobs...)
	}
	oldLen := v.length
	v.length += o.length
	if v.nulls != nil || o.nulls != nil {
		v.ensureNullsTo(oldLen)
		if o.nulls != nil {
			v.nulls = append(v.nulls, o.nulls...)
		} else {
			for i := 0; i < o.length; i++ {
				v.nulls = append(v.nulls, false)
			}
		}
	}
}

func (v *Vector) ensureNullsTo(n int) {
	if v.nulls == nil {
		v.nulls = make([]bool, n)
		return
	}
	for len(v.nulls) < n {
		v.nulls = append(v.nulls, false)
	}
}

// Slice returns a new vector containing rows [from, to). Payload
// slices alias the original storage.
func (v *Vector) Slice(from, to int) *Vector {
	out := &Vector{typ: v.typ, length: to - from}
	switch v.typ {
	case Bool:
		out.bools = v.bools[from:to]
	case Int32:
		out.i32 = v.i32[from:to]
	case Int64:
		out.i64 = v.i64[from:to]
	case Float64:
		out.f64 = v.f64[from:to]
	case String:
		out.strs = v.strs[from:to]
	case Blob:
		out.blobs = v.blobs[from:to]
	}
	if v.nulls != nil {
		out.nulls = v.nulls[from:to]
	}
	return out
}

// Gather returns a new vector containing the rows selected by sel, in
// sel order. Row indices may repeat.
func (v *Vector) Gather(sel []int) *Vector {
	out := New(v.typ, len(sel))
	out.AppendGather(v, sel)
	return out
}

// AppendGather appends the rows sel of src, which must have the same
// type, in sel order. Within the vector's capacity it allocates nothing.
func (v *Vector) AppendGather(src *Vector, sel []int) {
	switch v.typ {
	case Bool:
		v.bools = appendSel(v.bools, src.bools, sel)
	case Int32:
		v.i32 = appendSel(v.i32, src.i32, sel)
	case Int64:
		v.i64 = appendSel(v.i64, src.i64, sel)
	case Float64:
		v.f64 = appendSel(v.f64, src.f64, sel)
	case String:
		v.strs = appendSel(v.strs, src.strs, sel)
	case Blob:
		v.blobs = appendSel(v.blobs, src.blobs, sel)
	}
	if v.nulls == nil && src.nulls != nil { // as much room as the payload has
		room := cap(v.bools) + cap(v.i32) + cap(v.i64) + cap(v.f64) + cap(v.strs) + cap(v.blobs)
		v.nulls = make([]bool, v.length, max(room, v.length+len(sel)))
	}
	if src.nulls != nil {
		v.nulls = appendSel(v.nulls, src.nulls, sel)
	} else if v.nulls != nil {
		v.nulls = append(v.nulls, make([]bool, len(sel))...)
	}
	v.length += len(sel)
}

func appendSel[T any](dst, src []T, sel []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	out := dst[n:][:len(sel)]
	for j, i := range sel {
		out[j] = src[i]
	}
	return dst
}

// Reset empties the vector, keeping its arrays for the rows appended
// next.
func (v *Vector) Reset() {
	v.length = 0
	v.bools, v.i32, v.i64, v.f64, v.strs, v.blobs = v.bools[:0], v.i32[:0], v.i64[:0], v.f64[:0], v.strs[:0], v.blobs[:0]
	if v.nulls != nil {
		v.nulls = v.nulls[:0]
	}
}

// Clone returns a deep copy of the vector. Blob payload bytes are
// shared (blobs are treated as immutable once stored).
func (v *Vector) Clone() *Vector {
	out := &Vector{typ: v.typ, length: v.length}
	switch v.typ {
	case Bool:
		out.bools = append([]bool(nil), v.bools...)
	case Int32:
		out.i32 = append([]int32(nil), v.i32...)
	case Int64:
		out.i64 = append([]int64(nil), v.i64...)
	case Float64:
		out.f64 = append([]float64(nil), v.f64...)
	case String:
		out.strs = append([]string(nil), v.strs...)
	case Blob:
		out.blobs = append([][]byte(nil), v.blobs...)
	}
	if v.nulls != nil {
		out.nulls = append([]bool(nil), v.nulls...)
	}
	return out
}

// Cast converts the whole vector to the target type. NULL rows stay
// NULL. Unsupported casts return an error.
func (v *Vector) Cast(to Type) (*Vector, error) {
	if v.typ == to {
		return v, nil
	}
	// Numeric widenings convert the payload in one typed pass and keep
	// the null mask.
	var typed *Vector
	bad := -1
	switch {
	case v.typ == Int32 && to == Int64:
		typed = FromInt64s(widen[int64](v.i32))
	case v.typ == Int32 && to == Float64:
		typed = FromFloat64s(widen[float64](v.i32))
	case v.typ == Int64 && to == Float64:
		typed = FromFloat64s(widen[float64](v.i64))
	// Narrowings to an integer type check each row's range in the same
	// pass; the first row out of range fails as Value.Cast fails it.
	case v.typ == Int64 && to == Int32:
		typed, bad = narrow[int32](v.i64, v.nulls, func(x int64) bool { return x >= math.MinInt32 && x <= math.MaxInt32 })
	case v.typ == Float64 && to == Int32:
		typed, bad = narrow[int32](v.f64, v.nulls, func(x float64) bool {
			t := math.Trunc(x)
			return t >= math.MinInt32 && t <= math.MaxInt32
		})
	case v.typ == Float64 && to == Int64:
		// -2^63 and 2^63 are exact DOUBLEs; the range is [-2^63, 2^63).
		typed, bad = narrow[int64](v.f64, v.nulls, func(x float64) bool {
			t := math.Trunc(x)
			return t >= math.MinInt64 && t < -math.MinInt64
		})
	}
	if bad >= 0 {
		_, err := v.Get(bad).Cast(to)
		return nil, fmt.Errorf("cast row %d: %w", bad, err)
	}
	if typed != nil {
		typed.nulls = append([]bool(nil), v.nulls...)
		return typed, nil
	}
	out := New(to, v.length)
	for i := 0; i < v.length; i++ {
		if v.IsNull(i) {
			out.AppendValue(Null())
			continue
		}
		cv, err := v.Get(i).Cast(to)
		if err != nil {
			return nil, fmt.Errorf("cast row %d: %w", i, err)
		}
		out.AppendValue(cv)
	}
	return out, nil
}

// AsFloat64s returns the vector as a float64 slice, converting numeric
// types. NULL rows become 0. It errors on non-numeric vectors.
func (v *Vector) AsFloat64s() ([]float64, error) {
	switch v.typ {
	case Float64:
		return v.f64, nil
	case Int32:
		out := make([]float64, v.length)
		for i, x := range v.i32 {
			out[i] = float64(x)
		}
		return out, nil
	case Int64:
		out := make([]float64, v.length)
		for i, x := range v.i64 {
			out[i] = float64(x)
		}
		return out, nil
	case Bool:
		out := make([]float64, v.length)
		for i, x := range v.bools {
			if x {
				out[i] = 1
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("vector type %s is not numeric", v.typ)
}

// AsInt32s returns the vector as an int32 slice, converting numeric
// types with truncation. It errors on non-numeric vectors.
func (v *Vector) AsInt32s() ([]int32, error) {
	switch v.typ {
	case Int32:
		return v.i32, nil
	case Int64:
		out := make([]int32, v.length)
		for i, x := range v.i64 {
			out[i] = int32(x)
		}
		return out, nil
	case Float64:
		out := make([]int32, v.length)
		for i, x := range v.f64 {
			out[i] = int32(x)
		}
		return out, nil
	}
	return nil, fmt.Errorf("vector type %s is not an integer type", v.typ)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// narrow converts the rows of xs that nulls does not mark NULL to D,
// truncating toward zero, while fits holds for them; it returns the
// first row it fails for, or the vector and -1.
func narrow[D int32 | int64, S int64 | float64](xs []S, nulls []bool, fits func(S) bool) (*Vector, int) {
	out := make([]D, len(xs))
	for i, x := range xs {
		if nulls != nil && nulls[i] {
			continue
		}
		if !fits(x) {
			return nil, i
		}
		out[i] = D(x)
	}
	switch out := any(out).(type) {
	case []int32:
		return FromInt32s(out), -1
	case []int64:
		return FromInt64s(out), -1
	}
	return nil, -1
}

func widen[D int64 | float64, S int32 | int64](xs []S) []D {
	out := make([]D, len(xs))
	for i, x := range xs {
		out[i] = D(x)
	}
	return out
}
