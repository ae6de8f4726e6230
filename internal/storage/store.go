// Package storage implements the segmented column store backing
// engine tables, plus a checksummed on-disk columnar format for
// persistence. Data is stored append-only in column segments whose
// row count matches the execution chunk size. The active tail segment
// is mutable and uncompressed; a segment that fills is sealed:
// each column is frozen into a per-column encoding (RLE,
// frame-of-reference, dictionary, or raw) and annotated with a zone
// map (min/max, null count) that scans use to skip whole segments.
//
// Concurrency follows a copy-on-write version scheme: the store's
// state is an immutable tableVersion (segment list + row count)
// published through an atomic pointer. Readers pin a TableSnapshot —
// a cheap handle on one version — and read it to completion without
// locks, unaffected by concurrent writes. Writers serialize on the
// store mutex, share sealed segments with the previous version by
// pointer, clone only the mutable tail before touching it — or, for a
// DELETE or UPDATE (Rewrite), rebuild only the segments holding the
// rows it touches — and publish the new version in one atomic store,
// so a statement's rows become visible all at once and a reader never
// observes a torn write.
package storage

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vexdb/internal/vector"
)

// SegmentRows is the row capacity of one column segment. It equals the
// execution chunk size so sealed segments decode into exactly one
// scan chunk.
const SegmentRows = vector.DefaultChunkSize

// ColumnStore holds the data of one table as a list of segments. Each
// segment stores up to SegmentRows rows of every column. Appends and
// scans are safe for concurrent use; scans taken through Snapshot are
// additionally isolated from concurrent writes.
type ColumnStore struct {
	mu       sync.Mutex // serializes writers; readers go through cur
	types    []vector.Type
	compress bool
	cur      atomic.Pointer[tableVersion]

	// Cumulative scan counters (updated by the executor's scans).
	segsScanned atomic.Int64
	segsSkipped atomic.Int64
}

// tableVersion is one immutable published state of the table. Sealed
// segments are shared between versions by pointer; the mutable tail is
// exclusive to the version that created it (writers clone it before
// appending), so every segment reachable from a version is immutable
// from that version's point of view.
type tableVersion struct {
	segs []*segment
	rows int

	// stats caches the per-column statistics rollup, computed at most
	// once per version (versions are immutable, so the rollup never
	// goes stale — and is dropped wholesale when a write or TRUNCATE
	// publishes a successor).
	statsOnce sync.Once
	stats     []ColumnStats
}

// segment is either open (cols holds the tail vectors) or sealed
// (sealed holds the frozen, possibly compressed columns and cols is
// nil). Once a segment is reachable from a published version it is
// never mutated; writers copy the open tail instead.
type segment struct {
	cols   []*vector.Vector
	rows   int
	sealed []*SealedColumn
	zones  []ZoneMap // sealed's zone maps, collected once when it is set
}

// NewColumnStore creates an empty store for columns of the given types
// with compression enabled.
func NewColumnStore(types []vector.Type) *ColumnStore {
	s := &ColumnStore{types: append([]vector.Type(nil), types...), compress: true}
	s.cur.Store(&tableVersion{})
	return s
}

// SetCompression toggles compression and zone-map computation for
// segments sealed after the call (existing segments are not
// rewritten). With compression off, sealed segments keep their raw
// vectors and carry no zone maps, so scans can never prune them —
// this is the reference path differential tests compare against.
func (s *ColumnStore) SetCompression(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compress = on
}

// Types returns the column types.
func (s *ColumnStore) Types() []vector.Type { return s.types }

// NumRows returns the current row count.
func (s *ColumnStore) NumRows() int { return s.cur.Load().rows }

// NumColumns returns the column count.
func (s *ColumnStore) NumColumns() int { return len(s.types) }

// TableSnapshot is a pinned, immutable point-in-time view of one
// table: the version it references never changes, so a reader can
// walk its segments lock-free while concurrent statements append,
// rewrite or truncate the live store.
type TableSnapshot struct {
	v     *tableVersion
	store *ColumnStore
}

// Snapshot pins the store's current version.
func (s *ColumnStore) Snapshot() *TableSnapshot {
	return &TableSnapshot{v: s.cur.Load(), store: s}
}

// Types returns the column types.
func (t *TableSnapshot) Types() []vector.Type { return t.store.types }

// NumRows returns the snapshot's row count.
func (t *TableSnapshot) NumRows() int { return t.v.rows }

// NumColumns returns the column count.
func (t *TableSnapshot) NumColumns() int { return len(t.store.types) }

// NumSegments returns the snapshot's segment count.
func (t *TableSnapshot) NumSegments() int { return len(t.v.segs) }

// SegmentIsSealed reports whether segment i is sealed.
func (t *TableSnapshot) SegmentIsSealed(i int) bool { return t.v.segs[i].sealed != nil }

// Zones returns the zone maps of segment i's columns (indexed by
// table column position), or nil for the mutable tail — unsealed
// segments carry no statistics and are never pruned. The slice is the
// segment's own: callers must not modify it.
func (t *TableSnapshot) Zones(i int) []ZoneMap { return t.v.segs[i].zones }

// Segment returns segment i's columns restricted to the projected
// column indexes (nil projects all), as a chunk. Sealed raw columns
// are returned zero-copy; compressed columns are decoded.
func (t *TableSnapshot) Segment(i int, projection []int) (*vector.Chunk, error) {
	cols := t.SegmentColumns(i, projection, nil)
	vecs := make([]*vector.Vector, len(cols))
	for j, c := range cols {
		v, err := c.Decode(nil)
		if err != nil {
			return nil, fmt.Errorf("storage: segment %d column %d: %w", i, j, err)
		}
		vecs[j] = v
	}
	return vector.NewChunk(vecs...), nil
}

// SegmentColumns appends to dst segment i's columns restricted to the
// projected column indexes (nil projects all), undecoded: a scan reads
// what it needs of each, evaluating on codes where it can
// (SealedColumn.KeepInts, KeepStrings) and decoding only the rows it
// keeps (DecodeSel). The mutable tail's columns come as raw columns
// without statistics over the version's own vectors.
func (t *TableSnapshot) SegmentColumns(i int, projection []int, dst []*SealedColumn) []*SealedColumn {
	seg := t.v.segs[i]
	col := func(c int) *SealedColumn {
		if seg.sealed != nil {
			return seg.sealed[c]
		}
		return rawColumn(seg.cols[c])
	}
	if projection == nil {
		for c := range t.store.types {
			dst = append(dst, col(c))
		}
		return dst
	}
	for _, c := range projection {
		dst = append(dst, col(c))
	}
	return dst
}

// SegmentRowCounts returns the row count of every segment in order.
// Scans that tag rows with global positions use this to compute each
// segment's base offset, counting segments whether or not zone-map
// pruning later skips them.
func (t *TableSnapshot) SegmentRowCounts() []int {
	out := make([]int, len(t.v.segs))
	for i, seg := range t.v.segs {
		out[i] = seg.rows
	}
	return out
}

// Column materializes the full column c as one contiguous vector.
func (t *TableSnapshot) Column(c int) (*vector.Vector, error) {
	out := vector.New(t.store.types[c], t.v.rows)
	for i, seg := range t.v.segs {
		if seg.sealed != nil {
			v, err := seg.sealed[c].Decode(nil)
			if err != nil {
				return nil, fmt.Errorf("storage: segment %d column %d: %w", i, c, err)
			}
			out.AppendVector(v)
			continue
		}
		out.AppendVector(seg.cols[c])
	}
	return out, nil
}

// ColumnStatistics returns the snapshot's per-column rollup, computed
// at most once per version and cached (versions are immutable —
// including the mutable-looking tail segment, which copy-on-write
// clones before any append, so tail statistics cannot go stale).
func (t *TableSnapshot) ColumnStatistics() []ColumnStats {
	v := t.v
	v.statsOnce.Do(func() { v.stats = columnStatsOf(t.store.types, v.segs, t.store.compress) })
	return v.stats
}

// ------------------------------------------------------------ writers

func newSegment(types []vector.Type) *segment {
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		cols[i] = vector.New(t, SegmentRows)
	}
	return &segment{cols: cols}
}

// cloneOpen returns a private copy of an open segment: published
// versions may be pinned by readers, so a writer must never append to
// a tail vector they can see.
func (g *segment) cloneOpen(types []vector.Type) *segment {
	cols := make([]*vector.Vector, len(g.cols))
	for i, c := range g.cols {
		nc := vector.New(types[i], SegmentRows)
		nc.AppendVector(c)
		cols[i] = nc
	}
	return &segment{cols: cols, rows: g.rows}
}

// seal freezes the segment: every column is encoded (or kept raw) and
// annotated with a zone map, and the mutable vectors are released.
func (g *segment) seal(compress bool) {
	sealed := make([]*SealedColumn, len(g.cols))
	for i, c := range g.cols {
		sealed[i] = sealColumn(c, compress)
	}
	g.sealed, g.zones = sealed, zonesOf(sealed)
	g.cols = nil
}

// zonesOf collects a sealed segment's per-column zone maps.
func zonesOf(sealed []*SealedColumn) []ZoneMap {
	out := make([]ZoneMap, len(sealed))
	for j, sc := range sealed {
		out[j] = sc.Zone
	}
	return out
}

// AppendChunk is AppendChunkWidth at width 0: segments that fill up
// are sealed up to GOMAXPROCS at a time.
func (s *ColumnStore) AppendChunk(ch *vector.Chunk) error { return s.AppendChunkWidth(ch, 0) }

// AppendChunkWidth appends the rows of ch, conformed to the store's
// types (Conform). Segments that fill up are sealed up to width at a
// time (see sealer; width ≤ 0 means GOMAXPROCS). The new rows are
// published in a single version swap once the whole chunk is in and
// sealed, so snapshot readers see either none or all of them.
func (s *ColumnStore) AppendChunkWidth(ch *vector.Chunk, width int) error {
	ch, err := Conform(s.types, ch)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.appendLocked(s.cur.Load(), ch.Cols(), ch.NumRows(), width)
	s.cur.Store(v)
	return nil
}

// Conform returns ch with its columns cast to types, or the error
// appending ch to a store of those types fails with: a chunk of another
// width, or a column whose values do not cast. A chunk that already
// has the types comes back as it is.
func Conform(types []vector.Type, ch *vector.Chunk) (*vector.Chunk, error) {
	if ch.NumCols() != len(types) {
		return nil, fmt.Errorf("storage: append %d columns to %d-column table", ch.NumCols(), len(types))
	}
	var cast []*vector.Vector
	for i, t := range types {
		if ch.Col(i).Type() == t {
			continue
		}
		c, err := ch.Col(i).Cast(t)
		if err != nil {
			return nil, fmt.Errorf("storage: column %d: %w", i, err)
		}
		if cast == nil {
			cast = slices.Clone(ch.Cols())
		}
		cast[i] = c
	}
	if cast == nil {
		return ch, nil
	}
	return vector.NewChunk(cast...), nil
}

// appendLocked builds base's successor version with n rows of cast
// appended. Sealed segments are shared by pointer; an open tail is
// cloned before it is touched; segments that fill are sealed up to
// width at a time while the next ones fill. Caller holds s.mu and
// publishes the result.
func (s *ColumnStore) appendLocked(base *tableVersion, cast []*vector.Vector, n, width int) *tableVersion {
	segs := append([]*segment(nil), base.segs...)
	var tail *segment
	if len(segs) > 0 {
		if last := segs[len(segs)-1]; last.sealed == nil && last.rows < SegmentRows {
			tail = last.cloneOpen(s.types)
			segs[len(segs)-1] = tail
		}
	}
	sl := newSealer(s.compress, width)
	offset := 0
	for offset < n {
		if tail == nil {
			tail = newSegment(s.types)
			segs = append(segs, tail)
		}
		room := SegmentRows - tail.rows
		take := n - offset
		if take > room {
			take = room
		}
		for i, col := range tail.cols {
			col.AppendVector(cast[i].Slice(offset, offset+take))
		}
		tail.rows += take
		offset += take
		if tail.rows == SegmentRows {
			sl.add(tail)
			tail = nil
		}
	}
	sl.wait()
	return &tableVersion{segs: segs, rows: base.rows + n}
}

// sealer seals the segments one write fills, up to width at a time,
// each by its own goroutine, while the writer goes on filling the next:
// at most width segments seal and one fills at any moment, so a bulk
// write holds a bounded number of unsealed segments. A write that fills
// only one segment seals it inline and starts no goroutine. A sealed
// segment's bytes, zone maps and sketches are those of its rows alone,
// so they do not depend on the width.
type sealer struct {
	compress bool
	width    int
	held     *segment      // the first full segment, until a second fills
	sem      chan struct{} // width tokens, made when a second segment fills
	wg       sync.WaitGroup
}

// newSealer returns a sealer of the given width, clamped to
// GOMAXPROCS (≤ 0: GOMAXPROCS): more sealers than threads the scheduler
// runs seal nothing sooner.
func newSealer(compress bool, width int) *sealer {
	procs := runtime.GOMAXPROCS(0)
	if width <= 0 || width > procs {
		width = procs
	}
	return &sealer{compress: compress, width: width}
}

// add seals g, now or by the time wait returns. The caller must not
// touch g until then.
func (sl *sealer) add(g *segment) {
	switch {
	case sl.width <= 1:
		g.seal(sl.compress)
		return
	case sl.sem == nil && sl.held == nil:
		sl.held = g
		return
	case sl.sem == nil:
		sl.sem = make(chan struct{}, sl.width)
		sl.spawn(sl.held)
		sl.held = nil
	}
	sl.spawn(g)
}

// spawn seals g in a goroutine once one of the width slots is free.
func (sl *sealer) spawn(g *segment) {
	sl.sem <- struct{}{}
	sl.wg.Add(1)
	go func() {
		defer func() { <-sl.sem; sl.wg.Done() }()
		g.seal(sl.compress)
	}()
}

// wait returns once every segment added is sealed.
func (sl *sealer) wait() {
	if sl.held != nil {
		sl.held.seal(sl.compress)
		sl.held = nil
	}
	sl.wg.Wait()
}

// AppendRow appends a single row of values.
func (s *ColumnStore) AppendRow(vals []vector.Value) error {
	if len(vals) != len(s.types) {
		return fmt.Errorf("storage: row has %d values, table has %d columns", len(vals), len(s.types))
	}
	cols := make([]*vector.Vector, len(s.types))
	for i, t := range s.types {
		cols[i] = vector.New(t, 1)
		v := vals[i]
		if !v.IsNull() && v.Type() != t {
			cv, err := v.Cast(t)
			if err != nil {
				return fmt.Errorf("storage: column %d: %w", i, err)
			}
			v = cv
		}
		cols[i].AppendValue(v)
	}
	return s.AppendChunk(vector.NewChunk(cols...))
}

// RowRange names the rows [Start, End) of a table by global ordinal:
// a row's position counted from the table's first row across every
// segment in order.
type RowRange struct{ Start, End int }

// CheckRanges reports whether ranges are non-empty runs, sorted and
// disjoint, that lie within [0, limit), and returns how many rows they
// name.
func CheckRanges(ranges []RowRange, limit int) (int, error) {
	prev := 0
	for _, r := range ranges {
		if r.Start < prev || r.End <= r.Start || r.End > limit {
			return 0, fmt.Errorf("storage: row range [%d, %d) unsorted, empty or past %d rows", r.Start, r.End, limit)
		}
		prev = r.End
	}
	return rangeRows(ranges), nil
}

// Rewrite deletes the rows that ranges name (rows == nil) or overwrites
// them in place (rows holds one replacement per named row, in ordinal
// order), and publishes the result as one version. Only the segments
// the ranges fall in are rebuilt — a sealed one is re-sealed with fresh
// zone maps and sketches, the open tail is cloned and edited — and
// every other segment is shared by pointer. Row order is kept, so an
// ordinal names the same row wherever the segment boundaries lie: a
// store loaded from a checkpoint image, whose tail was sealed early,
// applies a logged rewrite to the rows it named when it was logged.
// Rebuilt sealed segments are sealed up to width at a time, as
// AppendChunkWidth's are.
func (s *ColumnStore) Rewrite(ranges []RowRange, rows *vector.Chunk, width int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows, err := s.CheckRewrite(ranges, rows)
	if err != nil {
		return err
	}
	base := s.cur.Load()
	n := rangeRows(ranges)
	if n == 0 {
		return nil
	}
	var cast []*vector.Vector
	if rows != nil {
		cast = rows.Cols()
	}
	segs := make([]*segment, 0, len(base.segs))
	sl := newSealer(s.compress, width)
	var local []RowRange // the ranges' part in the current segment, segment-relative
	ri, next, taken, start := 0, ranges[0].Start, 0, 0
	for i, seg := range base.segs {
		end := start + seg.rows
		local = local[:0]
		for ri < len(ranges) && next < end {
			stop := min(ranges[ri].End, end)
			local = append(local, RowRange{next - start, stop - start})
			next = stop
			if stop == ranges[ri].End {
				if ri++; ri < len(ranges) {
					next = ranges[ri].Start
				}
			}
		}
		start = end
		if len(local) == 0 {
			segs = append(segs, seg)
			continue
		}
		g, err := seg.rewrite(s.types, local, cast, taken)
		if err != nil {
			sl.wait()
			return fmt.Errorf("storage: segment %d: %w", i, err)
		}
		taken += rangeRows(local)
		if g.rows == 0 {
			continue
		}
		segs = append(segs, g)
		if seg.sealed != nil {
			sl.add(g)
		}
	}
	sl.wait()
	v := &tableVersion{segs: segs, rows: base.rows}
	if cast == nil {
		v.rows -= n
	}
	s.cur.Store(v)
	return nil
}

// CheckRewrite returns the error Rewrite(ranges, rows) fails with
// against the current version — ranges CheckRanges refuses, a
// replacement count other than the rows they name, replacement rows
// that do not conform — or else rows conformed to the store's types.
func (s *ColumnStore) CheckRewrite(ranges []RowRange, rows *vector.Chunk) (*vector.Chunk, error) {
	n, err := CheckRanges(ranges, s.NumRows())
	if err != nil || rows == nil {
		return nil, err
	}
	if rows.NumRows() != n {
		return nil, fmt.Errorf("storage: %d replacement rows for %d ordinals", rows.NumRows(), n)
	}
	return Conform(s.types, rows)
}

// rangeRows counts the rows ranges name.
func rangeRows(ranges []RowRange) int {
	n := 0
	for _, r := range ranges {
		n += r.End - r.Start
	}
	return n
}

// rewrite returns a copy of g with the segment-relative runs deleted
// (cast == nil) or overwritten by cast's rows from position from on,
// open for the caller to seal when g was sealed; an emptied segment
// comes back with no rows for the caller to drop.
func (g *segment) rewrite(types []vector.Type, runs []RowRange, cast []*vector.Vector, from int) (*segment, error) {
	out := &segment{cols: make([]*vector.Vector, len(types)), rows: g.rows}
	if cast == nil {
		out.rows -= rangeRows(runs)
	}
	for c, t := range types {
		var col *vector.Vector
		if g.sealed != nil {
			v, err := g.sealed[c].Decode(nil)
			if err != nil {
				return nil, fmt.Errorf("column %d: %w", c, err)
			}
			col = v
		} else {
			col = g.cols[c]
		}
		nc := vector.New(t, out.rows)
		prev, k := 0, from
		for _, r := range runs {
			nc.AppendVector(col.Slice(prev, r.Start))
			if cast != nil {
				nc.AppendVector(cast[c].Slice(k, k+r.End-r.Start))
				k += r.End - r.Start
			}
			prev = r.End
		}
		nc.AppendVector(col.Slice(prev, g.rows))
		out.cols[c] = nc
	}
	return out, nil
}

// Truncate removes all rows, keeping the schema. The empty successor
// version carries no segments and therefore no zone maps or HLL
// sketches: the statistics rollup (and with it the cost planner's
// distinct-count estimates) resets along with the data instead of
// reporting the dropped rows' NDVs.
func (s *ColumnStore) Truncate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.Store(&tableVersion{})
}

// ------------------------------------------------- compatibility reads
//
// The methods below serve callers that want "current state" semantics
// (single-statement reads, stats, persistence). Each pins the current
// version for the duration of the call.

// NumSegments returns the number of segments.
func (s *ColumnStore) NumSegments() int { return s.Snapshot().NumSegments() }

// Segment returns segment i of the current version; see
// TableSnapshot.Segment.
func (s *ColumnStore) Segment(i int, projection []int) (*vector.Chunk, error) {
	return s.Snapshot().Segment(i, projection)
}

// Zones returns the zone maps of segment i's columns of the current
// version; see TableSnapshot.Zones.
func (s *ColumnStore) Zones(i int) []ZoneMap { return s.Snapshot().Zones(i) }

// SegmentIsSealed reports whether segment i has been sealed.
func (s *ColumnStore) SegmentIsSealed(i int) bool { return s.Snapshot().SegmentIsSealed(i) }

// NoteScan adds to the store's cumulative scanned/skipped segment
// counters (called by the executor when a query that scanned the table
// closes).
func (s *ColumnStore) NoteScan(scanned, skipped int64) {
	s.segsScanned.Add(scanned)
	s.segsSkipped.Add(skipped)
}

// TableStats summarizes the physical layout of one table.
type TableStats struct {
	Rows           int
	Segments       int
	SealedSegments int
	// LogicalBytes estimates the uncompressed payload size;
	// CompressedBytes is the actual footprint of sealed payloads
	// (equal to logical for raw columns).
	LogicalBytes    int64
	CompressedBytes int64
	// EncodedColumns counts sealed columns per encoding name
	// ("raw", "rle", "for", "dict").
	EncodedColumns map[string]int
	// SegmentsScanned and SegmentsSkipped are cumulative counts of
	// segments decoded for scans vs. skipped by zone-map pruning.
	SegmentsScanned int64
	SegmentsSkipped int64
	// Columns holds the per-column statistics rollup (one entry per
	// table column, in schema order) the cost-based planner reads.
	Columns []ColumnStats
}

// ColumnStats is the table-level rollup of one column's per-segment
// statistics: zone maps merged to global bounds and null counts, and
// segment HLL sketches merged to a distinct-count estimate. Only
// sealed, statistics-bearing segments contribute — StatsRows below
// Rows of the table means part of the data (the mutable tail, or
// segments sealed with compression off) is uncovered and estimates
// should be scaled accordingly.
type ColumnStats struct {
	// StatsRows counts the rows covered by zone-map statistics.
	StatsRows int
	NullCount int
	// Distinct is the merged-HLL distinct estimate over the rows
	// covered by sketches (SketchRows); 0 means no sketch available.
	Distinct   int64
	SketchRows int
	// Min and Max bound the column's non-NULL values over the covered
	// rows; valid only when HasMinMax.
	Min, Max  vector.Value
	HasMinMax bool
}

// Stats computes the store's physical statistics.
func (s *ColumnStore) Stats() TableStats {
	snap := s.Snapshot()
	st := TableStats{
		Rows:            snap.NumRows(),
		Segments:        snap.NumSegments(),
		EncodedColumns:  map[string]int{},
		SegmentsScanned: s.segsScanned.Load(),
		SegmentsSkipped: s.segsSkipped.Load(),
	}
	for _, seg := range snap.v.segs {
		if seg.sealed == nil {
			for _, c := range seg.cols {
				n := int64(rawSizeOf(c))
				st.LogicalBytes += n
				st.CompressedBytes += n
			}
			continue
		}
		st.SealedSegments++
		for _, sc := range seg.sealed {
			st.LogicalBytes += int64(sc.LogicalBytes())
			st.CompressedBytes += int64(sc.CompressedBytes())
			st.EncodedColumns[sc.Enc.String()]++
		}
	}
	st.Columns = snap.ColumnStatistics()
	return st
}

// ColumnStatistics returns the per-column rollup alone (the cheap
// subset of Stats the planner needs). The rollup is computed at most
// once per published version and cached on it, so repeated planning
// against an unchanged table costs one pointer load.
func (s *ColumnStore) ColumnStatistics() []ColumnStats {
	return s.Snapshot().ColumnStatistics()
}

// columnStatsOf merges per-segment zone maps and HLL sketches into
// table-level column statistics. With tailStats set (the store seals
// with compression and statistics on), the mutable tail segment
// contributes approximate sketches computed on the fly — a zone map
// and HLL over its ≤ SegmentRows rows — so freshly loaded small tables
// get real row counts, bounds and NDV estimates instead of falling
// back to sqrt(rows) planner defaults. The computation is cached per
// published version (see ColumnStatistics), so repeated planning pays
// for it once.
func columnStatsOf(types []vector.Type, segs []*segment, tailStats bool) []ColumnStats {
	out := make([]ColumnStats, len(types))
	sketches := make([]*HLL, len(types))
	mergeZone := func(c int, z ZoneMap, sketch *HLL) {
		cs := &out[c]
		cs.StatsRows += z.Rows
		cs.NullCount += z.NullCount
		if z.HasMinMax() {
			if !cs.HasMinMax {
				cs.Min, cs.Max, cs.HasMinMax = z.Min, z.Max, true
			} else {
				if r, err := z.Min.Compare(cs.Min); err == nil && r < 0 {
					cs.Min = z.Min
				}
				if r, err := z.Max.Compare(cs.Max); err == nil && r > 0 {
					cs.Max = z.Max
				}
			}
		}
		if sketch != nil {
			cs.SketchRows += z.Rows
			if sketches[c] == nil {
				sketches[c] = NewHLL()
			}
			sketches[c].Merge(sketch)
		}
	}
	for _, seg := range segs {
		if seg.sealed == nil {
			if !tailStats {
				continue
			}
			for c, col := range seg.cols {
				if col.Len() == 0 {
					continue
				}
				mergeZone(c, computeZone(col), computeSketch(col))
			}
			continue
		}
		for c, sc := range seg.sealed {
			z := sc.Zone
			if z.Rows == 0 {
				continue // sealed with compression off: no statistics
			}
			mergeZone(c, z, sc.Sketch)
		}
	}
	for c, h := range sketches {
		out[c].Distinct = h.Estimate()
	}
	return out
}

// SegmentRowCounts returns the row count of every segment in order.
func (s *ColumnStore) SegmentRowCounts() []int { return s.Snapshot().SegmentRowCounts() }

// Column materializes the full column c as one contiguous vector.
func (s *ColumnStore) Column(c int) (*vector.Vector, error) { return s.Snapshot().Column(c) }
