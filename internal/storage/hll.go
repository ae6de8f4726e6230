// HyperLogLog distinct-count sketches for sealed segment columns.
// One sketch is computed per column at segment seal time (alongside
// the zone map) and merged across segments on demand, giving the
// planner table-level NDV estimates without ever rescanning data.
//
// The sketch uses p=8 (256 single-byte registers, ~6.5% standard
// error): 256 bytes per sealed column is noise next to the segment
// payload, and join-ordering decisions only need the right order of
// magnitude. Small cardinalities use the linear-counting correction,
// so NDV estimates for dimension-sized columns are near exact.
package storage

import (
	"math"
	"math/bits"

	"vexdb/internal/vector"
)

// hllP is the register-index bit width; hllM = 2^hllP registers.
const (
	hllP = 8
	hllM = 1 << hllP
)

// HLL is a HyperLogLog sketch. The zero value is not usable; call
// NewHLL. Sketches are written single-threaded at seal time and
// read-only afterwards.
type HLL struct {
	reg [hllM]byte
}

// NewHLL returns an empty sketch.
func NewHLL() *HLL { return &HLL{} }

// AddHash folds one 64-bit hashed value into the sketch. Callers hash
// their values first (hllMix / hllString / hllBytes) so that the
// register distribution is uniform regardless of the input domain. The
// top hllP bits pick the register; the rank is one more than the count
// of leading zeros in the rest, read in one instruction
// (bits.LeadingZeros64) rather than by a shift loop whose random trip
// count defeats the branch predictor.
func (h *HLL) AddHash(x uint64) {
	idx := x >> (64 - hllP)
	rest := x<<hllP | 1<<(hllP-1) // low bits; sentinel keeps rank ≤ 64-p+1
	if rank := byte(bits.LeadingZeros64(rest) + 1); rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// Merge folds other into h (register-wise max). A nil other is a
// no-op, so partially sketched tables (mixed-version segments) merge
// into a best-effort estimate.
func (h *HLL) Merge(other *HLL) {
	if other == nil {
		return
	}
	for i, r := range other.reg {
		if r > h.reg[i] {
			h.reg[i] = r
		}
	}
}

// Empty reports whether the sketch has seen no values.
func (h *HLL) Empty() bool {
	if h == nil {
		return true
	}
	for _, r := range h.reg {
		if r != 0 {
			return false
		}
	}
	return true
}

// hllAlpha is the bias-correction constant for m = 256.
const hllAlpha = 0.7213 / (1 + 1.079/hllM)

// Estimate returns the sketch's cardinality estimate, with the
// standard linear-counting correction for small ranges (exact-ish for
// dimension tables) and clamped to at least 1 for non-empty sketches.
func (h *HLL) Estimate() int64 {
	if h == nil {
		return 0
	}
	sum := 0.0
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := hllAlpha * hllM * hllM / sum
	if e <= 2.5*hllM && zeros > 0 {
		e = hllM * math.Log(float64(hllM)/float64(zeros))
	}
	if e < 1 && zeros < hllM {
		return 1
	}
	return int64(e + 0.5)
}

// Registers exposes the raw register array for persistence.
func (h *HLL) Registers() []byte { return h.reg[:] }

// hllFromRegisters reconstructs a sketch from persisted registers.
// Returns nil when the register count does not match (corrupt or
// future-format data; the caller treats it as "no sketch").
func hllFromRegisters(b []byte) *HLL {
	if len(b) != hllM {
		return nil
	}
	h := &HLL{}
	copy(h.reg[:], b)
	return h
}

// hllMix is a splitmix64-style finalizer: sealed integer and float
// columns hash each value through it so that sequential IDs (the
// common key shape) spread uniformly over the registers.
func hllMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hllBytes is FNV-1a 64 for string and blob values, finalized through
// hllMix: FNV's high bits (the sketch's register index) avalanche
// poorly on short inputs, so short similar strings would otherwise
// cluster into a handful of registers.
func hllBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return hllMix(h)
}

// hllString avoids the []byte conversion allocation on the seal path.
func hllString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return hllMix(h)
}

// computeSketch builds the distinct-count sketch for one column at
// seal time, skipping NULLs (the zone map already counts those).
// Float64 hashes the IEEE bit pattern, so -0.0 and 0.0 count as two
// values and every NaN payload as one — consistent with the engine's
// total order over floats. Bool columns skip the sketch entirely
// (NDV ≤ 2 is better read off the zone map).
func computeSketch(v *vector.Vector) *HLL {
	n := v.Len()
	if n == 0 || v.Type() == vector.Bool {
		return nil
	}
	h := NewHLL()
	switch v.Type() {
	case vector.Int32:
		for i, x := range v.Int32s() {
			if !v.IsNull(i) {
				h.AddHash(hllMix(uint64(int64(x))))
			}
		}
	case vector.Int64:
		for i, x := range v.Int64s() {
			if !v.IsNull(i) {
				h.AddHash(hllMix(uint64(x)))
			}
		}
	case vector.Float64:
		for i, x := range v.Float64s() {
			if !v.IsNull(i) {
				h.AddHash(hllMix(math.Float64bits(x)))
			}
		}
	case vector.String:
		for i, s := range v.Strings() {
			if !v.IsNull(i) {
				h.AddHash(hllString(s))
			}
		}
	case vector.Blob:
		for i, b := range v.Blobs() {
			if !v.IsNull(i) {
				h.AddHash(hllBytes(b))
			}
		}
	default:
		return nil
	}
	if h.Empty() { // all-NULL column
		return nil
	}
	return h
}
