// Grace-partitioned spill for the serial distinct operator. distinctOp
// streams survivors straight from its in-memory group index until the
// index outgrows the query's memory budget; it then switches to
// out-of-core mode:
//
//  1. The index's keys are dumped as per-partition "seen" rows (one
//     encoded key blob per already-emitted row), partitioned by a
//     hash of the encoded key, and the index is dropped.
//  2. Every subsequent input row is routed by the same hash to its
//     partition as a raw row (the data columns plus the row's global
//     input position) without touching the index at all.
//  3. At input exhaustion, partitions are processed one at a time: the
//     partition's seen set loads into a map, its raw rows replay in
//     arrival (= position) order keeping first appearances only, and
//     the survivors form position-sorted runs — spilled to a shared
//     out-file when the query is still over budget. The shared run
//     merger folds the partition runs back into global input order, so
//     output order is identical to the in-memory path.
//
// All rows of one distinct key hash to one partition, so dedup is
// exact. Like aggregation, partitions re-partition recursively: when a
// partition's seen set outgrows the budget while it is being
// processed, its remaining seen keys and raw rows fan out to a
// sub-spiller on the next hash nibble, down to maxSpillLevels. Only a
// partition that is still oversized at the deepest level degrades to
// in-memory processing (correctness over budget) — which now requires
// a key set that defeats 16^maxSpillLevels-way splitting.
package exec

import (
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// distinctSpiller fans post-overflow distinct input out to spillFanout
// partitions. It is serial (distinctOp never runs concurrently), so
// partitions need no locks. level selects the hash nibble this spiller
// partitions on; recursive sub-spillers run one nibble deeper.
type distinctSpiller struct {
	ctx   *Context
	level int

	file  *spill.File
	parts [spillFanout]distinctPart
}

type distinctPart struct {
	raw      *rowAppender // data cols + pos
	seen     *rowAppender // one Blob col of row keys
	rawRefs  []spill.ChunkRef
	seenRefs []spill.ChunkRef
}

// keyOf appends row r's distinct key — appendRowKey over every column
// — to buf[:0]. Dumped index entries and replayed rows are encoded
// from the same typed columns, so they agree byte-for-byte.
func keyOf(buf []byte, cols []*vector.Vector, r int) []byte {
	buf = buf[:0]
	for _, c := range cols {
		buf = appendRowKey(buf, c, r)
	}
	return buf
}

// writeBuf flushes one partition buffer into the shared spill file,
// recording the chunk ref.
func (s *distinctSpiller) writeBuf(a *rowAppender, refs *[]spill.ChunkRef) error {
	if a.rows() == 0 {
		return nil
	}
	if s.file == nil {
		f, err := s.ctx.spillManager().Create("distinct")
		if err != nil {
			return err
		}
		s.file = f
	}
	ref, err := s.file.WriteChunkRef(a.cols)
	if err != nil {
		return err
	}
	*refs = append(*refs, ref)
	a.reset()
	return nil
}

// addSeen routes one row key to its partition's seen list.
func (s *distinctSpiller) addSeen(key []byte) error {
	pt := &s.parts[partitionOf(hashKeyBytes(key), s.level)]
	if pt.seen == nil {
		pt.seen = newRowAppender([]vector.Type{vector.Blob})
	}
	pt.seen.cols[0].AppendValue(vector.NewBlob(append([]byte(nil), key...)))
	if pt.seen.rows() >= vector.DefaultChunkSize {
		return s.writeBuf(pt.seen, &pt.seenRefs)
	}
	return nil
}

// dumpIndex writes every key of the dropped group index as a seen row.
func (s *distinctSpiller) dumpIndex(gi *groupIndex) error {
	var buf []byte
	for id := 0; id < gi.n; id++ {
		buf = keyOf(buf, gi.keys, id)
		if err := s.addSeen(buf); err != nil {
			return err
		}
	}
	return nil
}

// route appends one post-overflow input chunk's rows to their
// partitions' raw lists. basePos is the global input position of the
// chunk's first row.
func (s *distinctSpiller) route(ch *vector.Chunk, basePos int64) error {
	cols := ch.Cols()
	var buf []byte
	for r := 0; r < ch.NumRows(); r++ {
		buf = keyOf(buf, cols, r)
		if err := s.routeRawRow(buf, cols, r, basePos+int64(r)); err != nil {
			return err
		}
	}
	return nil
}

// routeRawRow appends one raw row (keyed by its canonical key) to its
// partition's raw list under global input position pos.
func (s *distinctSpiller) routeRawRow(key []byte, cols []*vector.Vector, r int, pos int64) error {
	pt := &s.parts[partitionOf(hashKeyBytes(key), s.level)]
	if pt.raw == nil {
		types := make([]vector.Type, len(cols)+1)
		for i, c := range cols {
			types[i] = c.Type()
		}
		types[len(cols)] = vector.Int64
		pt.raw = newRowAppender(types)
	}
	for c := range cols {
		pt.raw.cols[c].AppendRowFrom(cols[c], r)
	}
	pt.raw.cols[len(cols)].AppendValue(vector.NewInt64(pos))
	if pt.raw.rows() >= vector.DefaultChunkSize {
		return s.writeBuf(pt.raw, &pt.rawRefs)
	}
	return nil
}

// routeRawRows re-routes already-positioned raw rows (data columns
// plus an explicit position column) — the recursive re-partitioning
// entry, where positions are no longer contiguous.
func (s *distinctSpiller) routeRawRows(data []*vector.Vector, pos []int64) error {
	var buf []byte
	for r := range pos {
		buf = keyOf(buf, data, r)
		if err := s.routeRawRow(buf, data, r, pos[r]); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes all buffered rows and counts the spilled partitions.
func (s *distinctSpiller) finish() error {
	n := int64(0)
	for p := range s.parts {
		pt := &s.parts[p]
		if pt.raw != nil {
			if err := s.writeBuf(pt.raw, &pt.rawRefs); err != nil {
				return err
			}
		}
		if pt.seen != nil {
			if err := s.writeBuf(pt.seen, &pt.seenRefs); err != nil {
				return err
			}
		}
		if len(pt.rawRefs) > 0 || len(pt.seenRefs) > 0 {
			n++
		}
	}
	s.ctx.spillStats().addPartitions(n)
	return nil
}

// release frees the spiller's input file once every partition is
// processed (the out-file with the survivor runs is the merger's).
func (s *distinctSpiller) release() {
	if s != nil && s.file != nil {
		s.file.Release()
		s.file = nil
	}
}

// finishDistinct turns the spilled partitions into a merger that
// streams the remaining survivors in global input order.
func (s *distinctSpiller) finishDistinct() (*runMerger, error) {
	var outFile *spill.File
	getOut := func() (*spill.File, error) {
		if outFile == nil {
			f, err := s.ctx.spillManager().Create("distinct-out")
			if err != nil {
				return nil, err
			}
			outFile = f
		}
		return outFile, nil
	}
	var held int64
	runs, err := s.processAll(getOut, &held)
	s.release()
	if err != nil {
		s.ctx.memShrink(held)
		return nil, err
	}
	var files []*spill.File
	if outFile != nil {
		files = append(files, outFile)
	}
	return newRunMerger(s.ctx, nil, runs, -1, files, held), nil
}

// processAll flushes the spiller's buffers and processes every
// partition holding raw rows, returning their survivor runs. It is the
// shared driver for the top-level spiller and recursive sub-spillers.
func (s *distinctSpiller) processAll(getOut func() (*spill.File, error), held *int64) ([]*mergeRun, error) {
	if err := s.finish(); err != nil {
		return nil, err
	}
	var runs []*mergeRun
	for p := range s.parts {
		pt := &s.parts[p]
		if len(pt.rawRefs) == 0 {
			continue // a seen-only partition has nothing left to emit
		}
		prs, err := s.processPartition(pt, getOut, held)
		if err != nil {
			return nil, err
		}
		runs = append(runs, prs...)
	}
	return runs, nil
}

// processPartition replays one partition: load its seen set, then keep
// each raw row whose key appears for the first time. Raw chunks were
// written in arrival order, so survivors come out position-sorted and
// chunk-sized survivor slabs are valid runs as-is.
//
// When the partition's seen set outgrows the budget mid-load (or
// mid-replay), the partition hands its remaining state to a
// sub-spiller on the next hash nibble: the in-memory seen keys and
// unread seen chunks re-route as seen rows, the unread raw chunks
// re-route with their original positions, and the sub-spiller's
// partitions process recursively. Survivor runs stay position-sorted
// throughout, so the global merge is unaffected by recursion depth.
func (s *distinctSpiller) processPartition(pt *distinctPart, getOut func() (*spill.File, error), held *int64) ([]*mergeRun, error) {
	ctx := s.ctx
	canRecurse := s.level+1 < maxSpillLevels
	seen := make(map[string]struct{})
	var seenBytes int64
	defer func() {
		ctx.memShrink(seenBytes)
	}()
	note := func(key []byte) bool {
		if _, ok := seen[string(key)]; ok {
			return false
		}
		seen[string(key)] = struct{}{}
		b := int64(len(key)) + 48
		seenBytes += b
		ctx.memGrow(b)
		return true
	}
	var runs []*mergeRun
	var surv *rowAppender
	var survPos []int64
	flush := func() error {
		if surv == nil || surv.rows() == 0 {
			return nil
		}
		run := &sortedRun{data: vector.NewChunk(surv.cols...), pos: survPos}
		mr, err := maybeSpillAggRun(ctx, run, getOut, held)
		if err != nil {
			return err
		}
		runs = append(runs, mr)
		surv = nil
		survPos = nil
		return nil
	}

	// overflow flushes the survivors found so far, then re-routes the
	// partition's remaining state — the in-memory seen keys plus the
	// unread seen/raw chunks — into a sub-spiller one hash nibble
	// deeper, and processes its partitions recursively.
	overflow := func(nextSeen, nextRaw int) ([]*mergeRun, error) {
		if err := flush(); err != nil {
			return nil, err
		}
		sub := &distinctSpiller{ctx: ctx, level: s.level + 1}
		defer sub.release()
		for k := range seen {
			if err := sub.addSeen([]byte(k)); err != nil {
				return nil, err
			}
		}
		seen = nil
		ctx.memShrink(seenBytes)
		seenBytes = 0
		for _, ref := range pt.seenRefs[nextSeen:] {
			if ctx.interrupted() {
				return nil, ErrCancelled
			}
			cols, err := s.file.ReadChunkAt(ref)
			if err != nil {
				return nil, err
			}
			for _, k := range cols[0].Blobs() {
				if err := sub.addSeen(k); err != nil {
					return nil, err
				}
			}
		}
		for _, ref := range pt.rawRefs[nextRaw:] {
			if ctx.interrupted() {
				return nil, ErrCancelled
			}
			cols, err := s.file.ReadChunkAt(ref)
			if err != nil {
				return nil, err
			}
			if err := sub.routeRawRows(cols[:len(cols)-1], cols[len(cols)-1].Int64s()); err != nil {
				return nil, err
			}
		}
		subRuns, err := sub.processAll(getOut, held)
		if err != nil {
			return nil, err
		}
		return append(runs, subRuns...), nil
	}

	for si, ref := range pt.seenRefs {
		if ctx.interrupted() {
			return nil, ErrCancelled
		}
		cols, err := s.file.ReadChunkAt(ref)
		if err != nil {
			return nil, err
		}
		for _, k := range cols[0].Blobs() {
			note(k)
		}
		if canRecurse && ctx.shouldSpill(seenBytes) {
			return overflow(si+1, 0)
		}
	}

	var buf []byte
	for ri, ref := range pt.rawRefs {
		if ctx.interrupted() {
			return nil, ErrCancelled
		}
		cols, err := s.file.ReadChunkAt(ref)
		if err != nil {
			return nil, err
		}
		data := cols[:len(cols)-1]
		pos := cols[len(cols)-1].Int64s()
		for r := range pos {
			buf = keyOf(buf, data, r)
			if !note(buf) {
				continue
			}
			if surv == nil {
				types := make([]vector.Type, len(data))
				for i, c := range data {
					types[i] = c.Type()
				}
				surv = newRowAppender(types)
			}
			for c := range data {
				surv.cols[c].AppendRowFrom(data[c], r)
			}
			survPos = append(survPos, pos[r])
		}
		if surv != nil && surv.rows() >= vector.DefaultChunkSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if canRecurse && ctx.shouldSpill(seenBytes) {
			return overflow(len(pt.seenRefs), ri+1)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return runs, nil
}
