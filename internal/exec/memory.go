// Per-query memory accounting for out-of-core execution. One
// memTracker is shared by every operator of a query: blocking
// operators (hash aggregation, join build, sort run generation) grow
// it as their state accumulates and shrink it when that state is
// spilled or dropped, so a single MemoryBudget governs the query's
// total footprint no matter how many pipeline breakers the plan
// stacks. Accounting is an estimate of payload bytes, not a precise
// heap measurement — the point is a stable, deterministic trigger for
// graceful degradation to disk, not an allocator.
package exec

import (
	"sync/atomic"

	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// memTracker accumulates the estimated bytes of live blocking-operator
// state for one query against its budget. The budget is static when
// the query runs standalone, and a live watermark when a governor
// lease backs it: `live` re-reads the ticket's atomic lease, so a
// TryGrow raises the limit mid-query and a governor reclaim lowers it
// — the next over-budget check simply fires against the new value.
type memTracker struct {
	budget int64
	live   func() int64 // optional dynamic budget; overrides budget
	used   atomic.Int64
}

func newMemTracker(budget int64) *memTracker {
	return &memTracker{budget: budget}
}

func (t *memTracker) grow(n int64)   { t.used.Add(n) }
func (t *memTracker) shrink(n int64) { t.used.Add(-n) }

// limit returns the budget currently in force.
func (t *memTracker) limit() int64 {
	if t.live != nil {
		if b := t.live(); b > 0 {
			return b
		}
	}
	return t.budget
}

// over reports whether the tracked footprint exceeds the budget.
func (t *memTracker) over() bool {
	return t.used.Load() > t.limit()
}

// spillEnabled reports whether this query runs under a memory budget
// with a spill manager attached (Stream sets both up when
// MemoryBudget > 0).
func (c *Context) spillEnabled() bool {
	return c != nil && c.mem != nil && c.spillMgr != nil
}

// overBudget reports whether the query's tracked footprint exceeds its
// budget; always false without a budget.
func (c *Context) overBudget() bool {
	return c != nil && c.mem != nil && c.mem.over()
}

// shouldSpill reports whether an operator holding `local` estimated
// bytes should spill: the query must be over its budget AND this
// operator's state must be a meaningful share of it (a quarter).
// The local floor keeps a small consumer from thrashing — spilling or
// re-partitioning state that is already tiny frees almost nothing and
// can recurse forever — while the operator actually responsible for
// the pressure spills. Total in-memory state is therefore softly
// bounded by budget + consumers×budget/4 rather than exactly budget.
//
// Before answering yes, the context asks its governor lease (when one
// backs the budget) to grow into idle pool bytes: spilling is the
// expensive path, so a query about to take it first tries to lease
// enough headroom to stay resident. A partial or refused grow falls
// through to spill — the grow is advisory, never a wait.
func (c *Context) shouldSpill(local int64) bool {
	if !c.spillEnabled() {
		return false
	}
	limit := c.mem.limit()
	used := c.mem.used.Load()
	if used <= limit || local*4 < limit {
		return false
	}
	if c.GrowBudget != nil {
		// Ask for 50% headroom over the current footprint so one grow
		// covers a stretch of growth instead of one chunk.
		target := used + used/2
		if nl := c.GrowBudget(target - limit); nl >= used {
			return false
		}
	}
	return true
}

func (c *Context) memGrow(n int64) {
	if c != nil && c.mem != nil {
		c.mem.grow(n)
	}
}

func (c *Context) memShrink(n int64) {
	if c != nil && c.mem != nil {
		c.mem.shrink(n)
	}
}

// spillManager returns the query's spill file manager, nil when
// spilling is disabled.
func (c *Context) spillManager() *spill.Manager {
	if c == nil {
		return nil
	}
	return c.spillMgr
}

// vectorBytes estimates the payload bytes of one column vector.
func vectorBytes(v *vector.Vector) int64 {
	var n int64
	switch v.Type() {
	case vector.Bool:
		n = int64(v.Len())
	case vector.Int32:
		n = 4 * int64(v.Len())
	case vector.Int64, vector.Float64:
		n = 8 * int64(v.Len())
	case vector.String:
		for _, s := range v.Strings() {
			n += 16 + int64(len(s))
		}
	case vector.Blob:
		for _, b := range v.Blobs() {
			n += 24 + int64(len(b))
		}
	}
	if v.Nulls() != nil {
		n += int64(v.Len())
	}
	return n
}

// chunkBytes estimates the payload bytes of a chunk.
func chunkBytes(ch *vector.Chunk) int64 {
	var n int64
	for _, c := range ch.Cols() {
		n += vectorBytes(c)
	}
	return n
}
