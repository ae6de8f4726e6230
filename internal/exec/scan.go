// Row positions of a base-table scan: the __rowpos column a scan
// appends for the cost planner's order-restoring sort. Which segments a
// scan reads is its fused filter's business (Where.Refutes, where.go).
package exec

import (
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// rowPosBases returns, per segment, the global position of its first
// row. Pruned segments still advance the base: positions name physical
// table rows, so they are stable across predicate pushdown and worker
// scheduling — which is what lets the order-restoring sort after a
// reordered join reproduce the syntactic plan's output byte for byte.
func rowPosBases(store *storage.TableSnapshot) []int64 {
	counts := store.SegmentRowCounts()
	bases := make([]int64, len(counts))
	var acc int64
	for i, c := range counts {
		bases[i] = acc
		acc += int64(c)
	}
	return bases
}

// rowPositions is the __rowpos column of the rows sel of the segment
// whose first row is at base.
func rowPositions(base int64, sel []int) *vector.Vector {
	pos := make([]int64, len(sel))
	for i, r := range sel {
		pos[i] = base + int64(r)
	}
	return vector.FromInt64s(pos)
}
