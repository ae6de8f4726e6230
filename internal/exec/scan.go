// Zone-map pruning for base-table scans. Sealed storage segments carry
// per-column min/max statistics; a scan (scanSource, parallel.go) first
// tests the pushed-down predicates against them and skips whole
// segments that provably contain no matching row, then decodes the
// survivors in the morsel workers, at every width including one.
package exec

import (
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// SegmentPrunable reports whether the zone maps prove that no row of
// the segment satisfies all pushed predicates. It only ever prunes on
// positive knowledge: missing statistics (mutable tail, legacy files,
// compression disabled), failed comparisons and unknown operators all
// keep the segment.
func SegmentPrunable(zones []storage.ZoneMap, preds []plan.ScanPredicate) bool {
	if len(zones) == 0 {
		return false
	}
	for _, p := range preds {
		if p.Col >= len(zones) {
			continue
		}
		z := zones[p.Col]
		if z.Rows == 0 {
			continue // no statistics
		}
		// A comparison is never TRUE on a NULL row, so an all-NULL
		// segment column fails every pushed predicate.
		if z.NullCount == z.Rows {
			return true
		}
		if !z.HasMinMax() {
			continue
		}
		minCmp, minOK := cmpKnown(z.Min, p.Val)
		maxCmp, maxOK := cmpKnown(z.Max, p.Val)
		switch p.Op {
		case sql.OpEq:
			if (minOK && minCmp > 0) || (maxOK && maxCmp < 0) {
				return true
			}
		case sql.OpLt: // needs min < val
			if minOK && minCmp >= 0 {
				return true
			}
		case sql.OpLe: // needs min <= val
			if minOK && minCmp > 0 {
				return true
			}
		case sql.OpGt: // needs max > val
			if maxOK && maxCmp <= 0 {
				return true
			}
		case sql.OpGe: // needs max >= val
			if maxOK && maxCmp < 0 {
				return true
			}
		}
	}
	return false
}

// cmpKnown compares two values, reporting ok only for a successful
// comparison; a failed one (incomparable types, e.g. a corrupt zone
// bound) must keep the segment, never prune it. In practice failures
// are unreachable: the binder only pushes comparable constants and
// the v2 loader rejects zone bounds typed unlike their column.
func cmpKnown(a, b vector.Value) (int, bool) {
	c, err := a.Compare(b)
	return c, err == nil
}

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
