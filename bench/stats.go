package main

import (
	"math"
	"sort"

	"vexdb"
)

// percentile is the linear-interpolated p-th percentile (p in [0,100])
// of samples; 0 when there are none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so
// -compare judges spread with the rule the acceptance procedure uses.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

const (
	fpOffset = 0xcbf29ce484222325
	fpPrime  = 0x100000001b3
	fpNull   = 0x9E3779B97F4A7C15
	fpNaN    = 0x7ff8000000000001
)

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hashString(s string) uint64 {
	h := uint64(fpOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fpPrime
	}
	return h
}

// valueBits maps row i of a column to 64 bits: every NaN to one
// pattern, NULL to a marker no value maps to by construction of the
// generators.
func valueBits(c *vexdb.Vector, i int) uint64 {
	if c.IsNull(i) {
		return fpNull
	}
	switch c.Type() {
	case vexdb.Int64:
		return uint64(c.Int64s()[i])
	case vexdb.Int32:
		return uint64(int64(c.Int32s()[i]))
	case vexdb.Float64:
		f := c.Float64s()[i]
		if f != f {
			return fpNaN
		}
		return math.Float64bits(f)
	case vexdb.String:
		return hashString(c.Strings()[i])
	case vexdb.Bool:
		if c.Bools()[i] {
			return 1
		}
		return 0
	default:
		return hashString(string(c.Blobs()[i]))
	}
}

// fingerprint is an order-sensitive digest of a streamed result. Each
// column keeps its own running hash, so the digest does not depend on
// where the executor cut its chunks — only on the values and their
// order, which is what the byte-identity contract promises.
type fingerprint struct {
	cols []uint64
	rows int64
}

func (f *fingerprint) add(t *vexdb.Table) {
	if f.cols == nil {
		f.cols = make([]uint64, t.NumCols())
		for i := range f.cols {
			f.cols[i] = fpOffset
		}
	}
	n := t.NumRows()
	for ci, c := range t.Cols {
		h := f.cols[ci]
		switch {
		case c.Type() == vexdb.Int64 && !c.HasNulls():
			for _, v := range c.Int64s()[:n] {
				h = (h ^ uint64(v)) * fpPrime
			}
		default:
			for i := 0; i < n; i++ {
				h = (h ^ valueBits(c, i)) * fpPrime
			}
		}
		f.cols[ci] = h
	}
	f.rows += int64(n)
}

func (f *fingerprint) sum() uint64 {
	h := mix64(uint64(f.rows))
	for _, c := range f.cols {
		h = mix64(h ^ c)
	}
	return h
}

// rowSetDigest is an order-insensitive digest of a relation: the sum
// of one hash per row. The voter checks use it because a client-side
// join and the engine's need not emit rows in the same order.
func rowSetDigest(n int, cols ...func(i int) uint64) uint64 {
	var total uint64
	for i := 0; i < n; i++ {
		h := uint64(fpOffset)
		for _, c := range cols {
			h = mix64(h ^ c(i))
		}
		total += h
	}
	return mix64(total ^ uint64(n))
}
