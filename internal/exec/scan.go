// Zone-map pruned, prefetching base-table scans. Sealed storage
// segments carry per-column min/max statistics; a scan first tests
// the pushed-down predicates against them and skips whole segments
// that provably contain no matching row, then decodes the survivors.
// The serial scan overlaps decode with compute by running a bounded
// prefetcher goroutine; the morsel-parallel scan gets the same
// overlap from its worker pool, so only pruning is added there.
package exec

import (
	"sync"
	"sync/atomic"

	"vexdb/internal/catalog"
	"vexdb/internal/plan"
	"vexdb/internal/sql"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// ScanStats accumulates segment-level counters for one query. All
// methods are safe for concurrent use and for a nil receiver.
type ScanStats struct {
	scanned atomic.Int64
	skipped atomic.Int64
}

// Scanned returns the number of segments decoded and scanned.
func (s *ScanStats) Scanned() int64 {
	if s == nil {
		return 0
	}
	return s.scanned.Load()
}

// Skipped returns the number of segments skipped by zone-map pruning.
func (s *ScanStats) Skipped() int64 {
	if s == nil {
		return 0
	}
	return s.skipped.Load()
}

func (s *ScanStats) addScanned(n int64) {
	if s != nil {
		s.scanned.Add(n)
	}
}

func (s *ScanStats) addSkipped(n int64) {
	if s != nil {
		s.skipped.Add(n)
	}
}

// stats returns the context's per-query scan counters (nil-safe).
func (c *Context) stats() *ScanStats {
	if c == nil {
		return nil
	}
	return c.Stats
}

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

// prefetchDepth bounds how many decoded segments the serial scan's
// prefetcher may run ahead of the consumer.
const prefetchDepth = 4

// scanOp is the serial base-table scan: a single prefetcher goroutine
// walks the segments, skips the ones zone maps prune, decodes
// survivors into recycled chunk buffers and hands them over a bounded
// channel, overlapping decode with downstream compute. Chunks are
// valid until the next call to Next (standard operator contract);
// only then is their buffer set recycled.
type scanOp struct {
	table      *catalog.Table
	projection []int
	preds      []plan.ScanPredicate
	rowPos     bool
	tap        *plan.NodeStats

	results  chan scanResult
	free     chan []*vector.Vector
	quit     chan struct{}
	quitOnce sync.Once
	aborted  atomic.Bool
	wg       sync.WaitGroup
	last     []*vector.Vector
}

type scanResult struct {
	ch   *vector.Chunk
	bufs []*vector.Vector
	err  error
}

func (s *scanOp) Open(ctx *Context) error {
	s.results = make(chan scanResult, prefetchDepth)
	s.free = make(chan []*vector.Vector, prefetchDepth+2)
	s.quit = make(chan struct{})
	s.quitOnce = sync.Once{}
	s.aborted.Store(false)
	s.last = nil

	store := ctx.tableData(s.table)
	n := store.NumSegments()
	ncols := len(s.projection)
	if s.projection == nil {
		ncols = store.NumColumns()
	}
	done := ctx.done()
	stats := ctx.stats()
	var bases []int64
	if s.rowPos {
		bases = rowPosBases(store)
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.results)
		var scanned, skipped int64
		defer func() { store.NoteScan(scanned, skipped) }()
		for i := 0; i < n; i++ {
			if len(s.preds) > 0 && SegmentPrunable(store.Zones(i), s.preds) {
				skipped++
				stats.addSkipped(1)
				continue
			}
			var bufs []*vector.Vector
			select {
			case bufs = <-s.free:
			default:
				bufs = make([]*vector.Vector, ncols)
			}
			ch, err := store.SegmentInto(i, s.projection, bufs)
			if err == nil {
				scanned++
				stats.addScanned(1)
				if s.rowPos {
					ch = withRowPos(ch, bases[i])
				}
			}
			select {
			case s.results <- scanResult{ch: ch, bufs: bufs, err: err}:
				if err != nil {
					return
				}
			case <-s.quit:
				s.aborted.Store(true)
				return
			case <-done:
				s.aborted.Store(true)
				return
			}
		}
	}()
	return nil
}

func (s *scanOp) Next() (*vector.Chunk, error) {
	// The chunk handed out by the previous Next is dead now; recycle
	// its decode buffers for the prefetcher.
	if s.last != nil {
		select {
		case s.free <- s.last:
		default:
		}
		s.last = nil
	}
	r, ok := <-s.results
	if !ok {
		if s.aborted.Load() {
			return nil, ErrCancelled
		}
		return nil, nil
	}
	if r.err != nil {
		return nil, r.err
	}
	s.last = r.bufs
	tapCount(s.tap, r.ch)
	return r.ch, nil
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

// withRowPos appends the __rowpos column (base, base+1, ...) to ch.
func withRowPos(ch *vector.Chunk, base int64) *vector.Chunk {
	n := ch.NumRows()
	pos := make([]int64, n)
	for i := range pos {
		pos[i] = base + int64(i)
	}
	cols := append(append([]*vector.Vector(nil), ch.Cols()...), vector.FromInt64s(pos))
	return vector.NewChunk(cols...)
}

func (s *scanOp) Close() error {
	if s.quit == nil {
		return nil
	}
	s.quitOnce.Do(func() { close(s.quit) })
	// Unblock the prefetcher if it is waiting to deliver, then join.
	for range s.results {
	}
	s.wg.Wait()
	return nil
}
