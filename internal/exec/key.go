package exec

import (
	"math"
	"math/bits"

	"vexdb/internal/vector"
)

// ------------------------------------------------------- column hashing

const (
	hashSeed = 0x243F6A8885A308D3
	hashMul  = 0x9E3779B97F4A7C15
	hashNull = 0xB7E151628AED2A6B // stands in for a NULL cell
)

// mixHash folds one 64-bit word into a running hash. The multiply
// carries every input bit into the high word and the shift folds the
// high word back down, so the high word (hash-table tag; its top bits
// the slot) depends on the whole key and a second multiply (partitionOf)
// does not bring the same bits back to the top.
func mixHash(h, x uint64) uint64 {
	h = (h ^ x) * hashMul
	return h ^ (h >> 32)
}

func hashBytes[T string | []byte](s T) uint64 {
	h := uint64(len(s))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = mixHash(h, w)
	}
	var w uint64
	for sh := uint(0); i < len(s); i, sh = i+1, sh+8 {
		w |= uint64(s[i]) << sh
	}
	return mixHash(h, w)
}

// hashColumn folds column v into the per-row hashes h, one type switch
// per column rather than per row. Integer widths sign-extend, so the
// hash of a number does not depend on its column's width. A NULL cell
// folds a marker instead of its payload, which is not canonical (an
// expression result can carry any payload under a NULL).
func hashColumn(h []uint64, v *vector.Vector) {
	nulls := v.Nulls()
	var underNull []uint64 // the NULL rows' hashes before this column
	for r, null := range nulls {
		if null {
			underNull = append(underNull, h[r])
		}
	}
	switch v.Type() {
	case vector.Bool:
		for r, x := range v.Bools() {
			w := uint64(0)
			if x {
				w = 1
			}
			h[r] = mixHash(h[r], w)
		}
	case vector.Int32:
		for r, x := range v.Int32s() {
			h[r] = mixHash(h[r], uint64(int64(x)))
		}
	case vector.Int64:
		for r, x := range v.Int64s() {
			h[r] = mixHash(h[r], uint64(x))
		}
	case vector.Float64:
		for r, x := range v.Float64s() {
			h[r] = mixHash(h[r], math.Float64bits(x))
		}
	case vector.String:
		for r, x := range v.Strings() {
			h[r] = mixHash(h[r], hashBytes(x))
		}
	case vector.Blob:
		for r, x := range v.Blobs() {
			h[r] = mixHash(h[r], hashBytes(x))
		}
	}
	if len(underNull) > 0 {
		k := 0
		for r, null := range nulls {
			if null {
				h[r] = mixHash(underNull[k], hashNull)
				k++
			}
		}
	}
}

// hashKeyRows computes one hash per row of the key columns into h
// (grown as needed), column by column.
func hashKeyRows(keys []*vector.Vector, n int, h []uint64) []uint64 {
	if cap(h) < n {
		h = make([]uint64, n)
	}
	h = h[:n]
	for r := range h {
		h[r] = hashSeed
	}
	for _, v := range keys {
		hashColumn(h, v)
	}
	return h
}

// ------------------------------------------------------- group index

// groupIndex maps key rows to dense group ids, assigned in order of
// first appearance. It is an open-addressing hash table (linear
// probing from the group's home slot, at most half full) whose slots
// hold a 32-bit hash tag and the group id; the keys
// themselves live in key vectors indexed by group id, next to each
// group's full hash (reused to grow the table, to route groups to
// spill partitions and to split a table by hash range for the parallel
// merge). bytes is what the index retains: the capacity of every array
// plus string payloads.
type groupIndex struct {
	keys   []*vector.Vector // n rows each, allocated at capacity()
	hashes []uint64         // len is the group capacity; [:n] are in use
	slots  []uint64         // tag<<32 | id+1; 0 is empty
	shift  uint             // 64 - log2(len(slots)), see home
	n      int
	bytes  int64
	hbuf   []uint64 // per-chunk row hashes
}

func newGroupIndex(types []vector.Type) *groupIndex {
	gi := &groupIndex{keys: make([]*vector.Vector, len(types))}
	for i, t := range types {
		gi.keys[i] = vector.New(t, 0)
	}
	return gi
}

// capacity is the number of groups the per-group arrays have room for.
func (gi *groupIndex) capacity() int { return len(gi.hashes) }

// home is the slot a hash probes from: its top bits, which the
// multiply in mixHash fills from every bit of the key (sequential
// integers land evenly spaced, Fibonacci hashing). A table must
// therefore never be filled with only the hashes of one top-bit range;
// partitionOf, which fills a table per partition, cuts from a remix of
// the hash for that reason.
func (gi *groupIndex) home(h uint64) uint64 { return h >> gi.shift }

// groupIDs resolves rows 0..n-1 of the key columns to group ids,
// creating groups as they first appear, and returns them in ids
// (grown as needed). Row r created its group iff ids[r] equals the
// number of groups that existed before it.
func (gi *groupIndex) groupIDs(keys []*vector.Vector, n int, ids []int32) []int32 {
	gi.hbuf = hashKeyRows(keys, n, gi.hbuf)
	return gi.resolve(keys, gi.hbuf, ids)
}

// resolve is groupIDs over row hashes the caller already has
// (hashKeyRows of the same rows). The key columns must have the types
// the index was built for.
func (gi *groupIndex) resolve(keys []*vector.Vector, hashes []uint64, ids []int32) []int32 {
	if cap(ids) < len(hashes) {
		ids = make([]int32, len(hashes))
	}
	ids = ids[:len(hashes)]
	in := gi.int64Key(keys)
	for r, h := range hashes {
		if 2*gi.n >= len(gi.slots) {
			gi.growSlots()
		}
		tag, mask := h>>32, uint64(len(gi.slots)-1)
		for i := gi.home(h); ; i = (i + 1) & mask {
			s := gi.slots[i]
			if s == 0 {
				ids[r] = int32(gi.insert(h, i, keys, r))
				break
			}
			if id := int32(uint32(s)) - 1; s>>32 == tag {
				if in != nil && gi.keys[0].Int64s()[id] == in[r] || in == nil && gi.equalRow(keys, r, int(id)) {
					ids[r] = id
					break
				}
			}
		}
	}
	return ids
}

// find is resolve without the insert: ids[r] is -1 for a key row the
// index does not hold. It writes nothing, so any number of goroutines
// may search one index at once.
func (gi *groupIndex) find(keys []*vector.Vector, hashes []uint64) []int32 {
	ids := make([]int32, len(hashes))
	in := gi.int64Key(keys)
	var held []int64
	if in != nil {
		held = gi.keys[0].Int64s()
	}
	mask := uint64(len(gi.slots) - 1)
	for r, h := range hashes {
		ids[r] = -1
		if gi.n == 0 {
			continue
		}
		for i := gi.home(h); gi.slots[i] != 0; i = (i + 1) & mask {
			s := gi.slots[i]
			if id := int32(uint32(s)) - 1; s>>32 == h>>32 {
				if in != nil && held[id] == in[r] || in == nil && gi.equalRow(keys, r, int(id)) {
					ids[r] = id
					break
				}
			}
		}
	}
	return ids
}

// int64Key is the key column when it is one BIGINT column with no NULL
// in it or in the index: resolve and find compare that key in their
// probe loops, not through equalRow's per-row call and type switch.
// It is nil for any other key.
func (gi *groupIndex) int64Key(keys []*vector.Vector) []int64 {
	if len(keys) == 1 && keys[0].Type() == vector.Int64 && keys[0].Nulls() == nil && gi.keys[0].Nulls() == nil {
		return keys[0].Int64s()
	}
	return nil
}

// equalRow reports whether row r of the key columns is group id's key.
// NULL equals NULL (one NULL group per column value combination);
// floats compare by bit pattern, so NaN payloads and the two zeros are
// distinct groups.
func (gi *groupIndex) equalRow(keys []*vector.Vector, r, id int) bool {
	for c, k := range gi.keys {
		v := keys[c]
		if null := k.IsNull(id); null || v.IsNull(r) {
			if null != v.IsNull(r) {
				return false
			}
			continue
		}
		var eq bool
		switch k.Type() {
		case vector.Bool:
			eq = v.Bools()[r] == k.Bools()[id]
		case vector.Int32:
			eq = v.Int32s()[r] == k.Int32s()[id]
		case vector.Int64:
			eq = v.Int64s()[r] == k.Int64s()[id]
		case vector.Float64:
			eq = math.Float64bits(v.Float64s()[r]) == math.Float64bits(k.Float64s()[id])
		case vector.String:
			eq = v.Strings()[r] == k.Strings()[id]
		case vector.Blob:
			eq = string(v.Blobs()[r]) == string(k.Blobs()[id])
		}
		if !eq {
			return false
		}
	}
	return true
}

// insert creates the next group for hash h at the empty slot the probe
// stopped on, with row r of the key columns as its key.
func (gi *groupIndex) insert(h, slot uint64, keys []*vector.Vector, r int) int {
	if gi.n == gi.capacity() {
		gi.growGroups()
	}
	id := gi.n
	gi.hashes[id] = h
	gi.slots[slot] = h&^math.MaxUint32 | uint64(id+1)
	gi.n++
	for c, k := range gi.keys {
		k.AppendRowFrom(keys[c], r)
		switch v := keys[c]; {
		case v.IsNull(r):
		case v.Type() == vector.String:
			gi.bytes += int64(len(v.Strings()[r]))
		case v.Type() == vector.Blob:
			gi.bytes += int64(len(v.Blobs()[r]))
		}
	}
	return id
}

// growSlots doubles the hash table and re-inserts every group from its
// stored hash.
func (gi *groupIndex) growSlots() {
	size := max(8, 2*len(gi.slots))
	gi.bytes += 8 * int64(size-len(gi.slots))
	gi.slots = make([]uint64, size)
	gi.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for id, h := range gi.hashes[:gi.n] {
		i := gi.home(h)
		for gi.slots[i] != 0 {
			i = (i + 1) & mask
		}
		gi.slots[i] = h&^math.MaxUint32 | uint64(id+1)
	}
}

// growGroups doubles the capacity of the per-group arrays. Key vectors
// are reallocated at the new capacity so that appends within it never
// grow them again and the charge is what they hold.
func (gi *groupIndex) growGroups() {
	size := max(4, 2*gi.capacity())
	perGroup := int64(8)
	for c, k := range gi.keys {
		grown := vector.New(k.Type(), size)
		grown.AppendVector(k)
		gi.keys[c] = grown
		perGroup += typeWidth(k.Type()) + 1 // and a NULL flag
	}
	gi.bytes += perGroup * int64(size-gi.capacity())
	gi.hashes = growTo(gi.hashes, size)
}

// growTo returns s reallocated to length n (zero-filled past the old
// length). Group-indexed arrays keep len == cap so that what they are
// charged for is exactly what they hold.
func growTo[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// gatherVecs gathers the rows sel of every non-nil vector.
func gatherVecs(vecs []*vector.Vector, sel []int) []*vector.Vector {
	out := make([]*vector.Vector, len(vecs))
	for i, v := range vecs {
		if v != nil {
			out[i] = v.Gather(sel)
		}
	}
	return out
}

func gatherBy[T any](src []T, sel []int) []T {
	out := make([]T, len(sel))
	for j, g := range sel {
		out[j] = src[g]
	}
	return out
}

// identitySel returns 0..n-1.
func identitySel(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}
