// Sorted-run machinery shared by the sort operators, the spilled
// aggregate's ordered emission and the spilled join's order-restoring
// external sort: run generation (runBuilder), loser-tree k-way merge
// over streaming run cursors (loserTree / runMerger), and spill of
// whole sorted runs to temp files when the query's memory budget is
// exceeded. Rows are ordered by the key codes of sortkey.go; the
// comparator below settles only what equal codes leave open.
//
// A run is a sorted sequence of rows; in memory it is one window
// (sortedRun), on disk it is a sequence of chunk-sized windows read
// back lazily, so merging k spilled runs holds O(k) windows — not the
// input — in memory. Every row carries its global input position; the
// merge breaks key ties by position, which makes the output
// byte-identical to a serial stable sort no matter how rows were
// distributed over runs, workers or spill files.
package exec

import (
	"cmp"
	"slices"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// sortRunCap, when positive, overrides the bound on how many sorted
// runs parallel run generation may produce (see fillBuilders); tests set
// it to exercise wide merges on small machines.
var sortRunCap int

// compareKeyRows compares row ra of avecs against row rb of bvecs
// under the sort keys, returning the output-order comparison (<0 when
// a precedes b). NULLs sort last ascending, first descending; with the
// Float64 total order in vector.Value.Compare this is transitive even
// over NaN-bearing keys. It is the order the key codes must never
// contradict, and what run sorting, top-k and the merge call once
// codes tie.
func compareKeyRows(keys []plan.SortKey, avecs []*vector.Vector, ra int, bvecs []*vector.Vector, rb int) (int, error) {
	for ki, k := range keys {
		av, bv := avecs[ki], bvecs[ki]
		an, bn := av.IsNull(ra), bv.IsNull(rb)
		if an || bn {
			if an == bn {
				continue
			}
			c := -1 // non-NULL first: NULLs last ascending
			if an {
				c = 1
			}
			if k.Desc {
				c = -c
			}
			return c, nil
		}
		c, err := compareKeyVals(av, ra, bv, rb)
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if k.Desc {
			c = -c
		}
		return c, nil
	}
	return 0, nil
}

// compareKeyVals compares two non-NULL key cells, with typed fast
// paths for the common column types: tie-heavy keys still reach it
// once per comparison, where boxing each cell into a vector.Value
// costs more than the comparison itself. DOUBLE cells compare by code,
// which is Value.Compare's total order.
func compareKeyVals(av *vector.Vector, ra int, bv *vector.Vector, rb int) (int, error) {
	if t := av.Type(); t == bv.Type() {
		switch t {
		case vector.Int64:
			return cmp.Compare(av.Int64s()[ra], bv.Int64s()[rb]), nil
		case vector.Float64:
			return cmp.Compare(floatCode(av.Float64s()[ra]), floatCode(bv.Float64s()[rb])), nil
		case vector.Int32:
			return cmp.Compare(av.Int32s()[ra], bv.Int32s()[rb]), nil
		case vector.String:
			return cmp.Compare(av.Strings()[ra], bv.Strings()[rb]), nil
		}
	}
	return av.Get(ra).Compare(bv.Get(rb))
}

// sortedRun is one fully sorted window of rows: the data columns, the
// evaluated key columns in key order, the leading key's codes (nil
// for keyless runs and keys that cannot be coded), and each row's
// unique global input position used as the merge tiebreak.
type sortedRun struct {
	data  *vector.Chunk
	keys  []*vector.Vector
	codes []uint64
	pos   []int64
}

// mergeRun is one sorted input of the loser-tree merge: the current
// window plus a cursor, and — for spilled runs — a fetch that loads
// the next window from disk. An in-memory run is a single window.
// Spilled runs do not own their file (many runs share one physical
// file); the merger that consumes them holds and releases the files.
type mergeRun struct {
	cur   *sortedRun
	idx   int
	fetch func() (*sortedRun, error) // nil for in-memory runs
	refs  []spill.ChunkRef           // a spilled run's windows, which fetch reads in order
	done  bool
	slot  int // cur's index among the windows of the merge batch in progress, -1 before its first pick
}

// newMemRun wraps an in-memory sorted run.
func newMemRun(r *sortedRun) *mergeRun {
	mr := &mergeRun{cur: r}
	if r == nil || r.data.NumRows() == 0 {
		mr.done = true
	}
	return mr
}

// advance moves the cursor one row, loading the next window when the
// current one is exhausted.
func (r *mergeRun) advance() error {
	if r.done {
		return nil
	}
	r.idx++
	if r.idx < r.cur.data.NumRows() {
		return nil
	}
	if r.fetch != nil {
		win, err := r.fetch()
		if err != nil {
			r.done = true
			return err
		}
		if win != nil && win.data.NumRows() > 0 {
			r.cur, r.idx = win, 0
			return nil
		}
	}
	r.done = true
	return nil
}

// ------------------------------------------------------- loser tree

// loserTree merges k sorted runs. Leaves are run fronts; each internal
// node remembers the loser of its subtree's match, so replacing the
// winner replays exactly one root path (log k comparisons per row)
// instead of a full tournament. Leaf s maps to tree slot s+k with
// parent(x) = x/2; internal nodes occupy 1..k-1.
type loserTree struct {
	coder *sortCoder // nil when runs are ordered by position alone
	runs  []*mergeRun
	node  []int // node[t] = run index of the loser at internal node t
	win   int   // current overall winner, -1 when empty
	err   error // first comparison or window-fetch error; output is invalid after
}

func newLoserTree(coder *sortCoder, runs []*mergeRun) *loserTree {
	lt := &loserTree{
		coder: coder,
		runs:  runs,
		node:  make([]int, len(runs)),
		win:   -1,
	}
	switch len(runs) {
	case 0:
	case 1:
		lt.win = 0
	default:
		lt.win = lt.build(1)
	}
	return lt
}

// build plays the initial tournament for the subtree rooted at
// internal node t, recording losers and returning the winner.
func (lt *loserTree) build(t int) int {
	k := len(lt.runs)
	if t >= k {
		return t - k // leaf
	}
	a := lt.build(2 * t)
	b := lt.build(2*t + 1)
	if lt.beats(b, a) {
		a, b = b, a
	}
	lt.node[t] = b
	return a
}

// replay re-runs the matches on leaf s's root path after its run
// advanced.
func (lt *loserTree) replay(s int) {
	k := len(lt.runs)
	if k < 2 {
		return
	}
	for t := (s + k) / 2; t >= 1; t /= 2 {
		if lt.beats(lt.node[t], s) {
			s, lt.node[t] = lt.node[t], s
		}
	}
	lt.win = s
}

// beats reports whether run a's front row precedes run b's: by the
// leading key's codes, then — where those tie — by the comparator over
// the keys the tie leaves open, then by position. Exhausted runs lose
// to everything, so the winner is exhausted only when every run is.
func (lt *loserTree) beats(a, b int) bool {
	if lt.err != nil {
		return false
	}
	ra, rb := lt.runs[a], lt.runs[b]
	if ra.done || rb.done {
		return rb.done && !ra.done
	}
	wa, wb := ra.cur, rb.cur
	if c := lt.coder; c != nil {
		from := 0
		if wa.codes != nil && wb.codes != nil {
			x, y := wa.codes[ra.idx], wb.codes[rb.idx]
			if x != y {
				return x < y
			}
			if c.decides(0, x) {
				from = 1
			}
		}
		d, err := compareKeyRows(c.keys[from:], wa.keys[from:], ra.idx, wb.keys[from:], rb.idx)
		if err != nil {
			lt.err = err
			return false
		}
		if d != 0 {
			return d < 0
		}
	}
	// Global input positions are unique, so the tiebreak is total and
	// the merge order deterministic.
	return wa.pos[ra.idx] < wb.pos[rb.idx]
}

// next returns the winning run's current window and row, then advances
// the tree past that row. ok is false once all runs are exhausted.
// The returned window stays valid after the advance even when the
// winner moved to its next spilled window.
func (lt *loserTree) next() (win *sortedRun, row int, ok bool) {
	w := lt.win
	if w < 0 || lt.runs[w].done || lt.err != nil {
		return nil, 0, false
	}
	r := lt.runs[w]
	win, row = r.cur, r.idx
	if err := r.advance(); err != nil && lt.err == nil {
		lt.err = err
	}
	lt.replay(w)
	return win, row, true
}

// ------------------------------------------------------- run builder

// topKCompactFloor keeps top-k compaction from thrashing on small
// buffers: the buffer must hold at least this many rows (and twice the
// limit) before a compaction pays for itself.
const topKCompactFloor = 4096

// runBuilder accumulates rows and turns them into sorted runs. Under
// a memory budget it writes full runs to spill files whenever the
// query's tracked footprint exceeds the budget. With a limit hint it
// keeps only the top-k rows: a compaction cuts the buffer to its first
// k rows, and from then on a row that does not precede the k-th is
// dropped before it is copied, so an `ORDER BY ... LIMIT k` never
// materializes more than O(k) rows per builder and soon appends almost
// nothing. Builders are single-goroutine; parallel sort gives each
// worker its own, sharing the query-wide tracker.
type runBuilder struct {
	ctx   *Context
	coder *sortCoder
	limit int64 // top-k bound (offset+count); <=0 unbounded
	label string
	st    *nodeStats // the node's record: runs spilled

	data  []*vector.Vector // accumulated data columns
	keys  []*vector.Vector // accumulated key columns; ColRef keys alias data
	pos   []int64
	bytes int64 // tracked estimate for the current buffer

	// thr is the buffer row a new row must precede to be kept, thrCode
	// its leading-key code: the k-th row after a compaction, -1 before
	// the first one and after a spill.
	thr     int
	thrCode uint64
	// Scratch reused from chunk to chunk: the incoming chunk's key
	// columns, its leading-key codes and the rows of it that are kept.
	chunkKeys []*vector.Vector
	lead      []uint64
	sel       []int

	file *spill.File // shared by all of this builder's spilled runs
	runs []*mergeRun // spilled runs completed so far
	tail *sortedRun  // the last spilled row's keys and position
	held int64       // tracker bytes of the final in-memory run
}

func newRunBuilder(ctx *Context, keys []plan.SortKey, limit int64, label string, st *nodeStats) *runBuilder {
	return &runBuilder{ctx: ctx, coder: newSortCoder(keys), limit: limit, label: label, st: st, thr: -1,
		chunkKeys: make([]*vector.Vector, len(keys))}
}

// add appends one chunk. Row r's global position is posBase+r; bases
// must be unique and non-overlapping across all add calls of all
// builders feeding one merge (callers use a running row count or
// morsel<<32).
func (b *runBuilder) add(ch *vector.Chunk, posBase int64) error {
	if ch.NumRows() == 0 {
		return nil
	}
	colKey, keys := b.coder.colKey, b.chunkKeys
	for ki, k := range b.coder.keys {
		if colKey[ki] >= 0 {
			keys[ki] = ch.Col(colKey[ki])
			continue
		}
		kv, err := plan.Evaluate(k.Expr, ch)
		if err != nil {
			return err
		}
		keys[ki] = kv
	}
	var sel []int // rows kept, nil for all
	if b.thr >= 0 {
		var err error
		if sel, err = b.beforeThreshold(keys, posBase); err != nil || len(sel) == 0 {
			return err
		}
		ch = ch.Gather(sel)
	}
	n := ch.NumRows()
	if b.data == nil {
		b.data = make([]*vector.Vector, ch.NumCols())
		for i := range b.data {
			b.data[i] = vector.New(ch.Col(i).Type(), n)
		}
		b.keys = make([]*vector.Vector, len(keys))
		for ki, kv := range keys {
			if colKey[ki] >= 0 {
				b.keys[ki] = b.data[colKey[ki]]
			} else {
				b.keys[ki] = vector.New(kv.Type(), n)
			}
		}
	}
	added := 8 * int64(n) // the positions
	for i := range b.data {
		b.data[i].AppendVector(ch.Col(i))
		added += vectorBytes(ch.Col(i))
	}
	for ki, kv := range keys {
		if colKey[ki] >= 0 {
			continue
		}
		if sel != nil {
			kv = kv.Gather(sel)
		}
		b.keys[ki].AppendVector(kv)
		added += vectorBytes(kv)
	}
	at := len(b.pos)
	b.pos = slices.Grow(b.pos, n)[:at+n]
	for i := range n {
		r := i
		if sel != nil {
			r = sel[i]
		}
		b.pos[at+i] = posBase + int64(r)
	}
	b.bytes += added
	b.ctx.memGrow(added)

	// Under memory pressure a top-k buffer first sheds the rows it can
	// never emit, whatever its size; only what is left may spill.
	pressed := b.ctx.shouldSpill(b.bytes)
	if b.limit > 0 && int64(len(b.pos)) >= 2*b.limit && (pressed || len(b.pos) >= topKCompactFloor) {
		if err := b.compact(); err != nil {
			return err
		}
		pressed = b.ctx.shouldSpill(b.bytes)
	}
	if pressed {
		return b.spillCurrent()
	}
	return nil
}

// beforeThreshold selects the rows of an incoming chunk that precede
// the buffer's k-th row: one pass over the leading codes, the
// comparator and the position only where a code ties the threshold's.
// There is a threshold only when the leading key is coded (compact), and
// every chunk's leading key is of its planned type, so it codes too.
func (b *runBuilder) beforeThreshold(keys []*vector.Vector, posBase int64) ([]int, error) {
	b.lead = b.coder.encode(0, keys[0], b.lead)
	sel := b.sel[:0]
	for r, code := range b.lead {
		if code > b.thrCode {
			continue
		}
		if code == b.thrCode {
			c, err := compareKeyRows(b.coder.keys, keys, r, b.keys, b.thr)
			if err != nil {
				return nil, err
			}
			if c > 0 || c == 0 && posBase+int64(r) > b.pos[b.thr] {
				continue
			}
		}
		sel = append(sel, r)
	}
	b.sel = sel
	return sel, nil
}

// runSort orders the rows of one buffer, key by key: rows are sorted
// by a key's codes, and each group the codes leave tied is ordered by
// the next key's codes, or — where equal codes do not decide the key —
// by the comparator. Rows tied on every key keep position order.
type runSort struct {
	b     *runBuilder
	codes [][]uint64 // per key over the buffer, encoded on first use
	tmp   []sortRec
	held  int64 // tracker bytes of the records, tmp, the gather index and codes
}

// order sorts recs, rows tied on every key before k.
func (s *runSort) order(recs []sortRec, k int) error {
	if k < len(s.codes) && s.codes[k] == nil {
		if s.codes[k] = s.b.coder.encode(k, s.b.keys[k], nil); s.codes[k] != nil {
			s.held += 8 * int64(len(s.b.pos))
			s.b.ctx.memGrow(8 * int64(len(s.b.pos)))
		}
	}
	if k == len(s.codes) || s.codes[k] == nil {
		return s.compareSort(recs, k) // no key left, or one that cannot be coded
	}
	codes := s.codes[k]
	for i := range recs {
		recs[i].code = codes[recs[i].row]
	}
	sortRecs(recs, s.tmp)
	for lo := 0; lo < len(recs); {
		hi := lo + 1
		for hi < len(recs) && recs[hi].code == recs[lo].code {
			hi++
		}
		if hi-lo > 1 {
			var err error
			if s.b.coder.decides(k, recs[lo].code) {
				err = s.order(recs[lo:hi], k+1)
			} else {
				err = s.compareSort(recs[lo:hi], k)
			}
			if err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// compareSort orders recs by the comparator over keys k onward, then
// position.
func (s *runSort) compareSort(recs []sortRec, k int) error {
	keys, vecs, pos := s.b.coder.keys[k:], s.b.keys[k:], s.b.pos
	var sortErr error
	slices.SortFunc(recs, func(x, y sortRec) int {
		c, err := compareKeyRows(keys, vecs, x.row, vecs, y.row)
		if err != nil {
			sortErr = err
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(pos[x.row], pos[y.row])
	})
	return sortErr
}

// buildRun sorts the current buffer by (keys, position) into a run,
// truncated to the top-k limit when one is set, and gives the buffer's
// charge back: the run is a copy, and the buffer's columns are the
// caller's to drop or reuse. The position tiebreak is explicit (not via
// sort stability): after a top-k compaction the buffer is no longer in
// position order.
func (b *runBuilder) buildRun() (*sortedRun, error) {
	n := len(b.pos)
	// One allocation holds the records and the record sort's scratch;
	// held adds the gather index. All of it dies with this call.
	recs := make([]sortRec, 2*n)
	s := runSort{b: b, codes: make([][]uint64, len(b.keys)), tmp: recs[n:], held: 40 * int64(n)}
	recs = recs[:n]
	b.ctx.memGrow(s.held)
	for i := range recs {
		recs[i].row = i
	}
	err := s.order(recs, 0)
	defer b.ctx.memShrink(s.held)
	if err != nil {
		return nil, err
	}
	if b.limit > 0 && int64(n) > b.limit {
		recs = recs[:b.limit]
	}
	idx := make([]int, len(recs))
	for i, r := range recs {
		idx[i] = r.row
	}
	run := &sortedRun{data: vector.NewChunk(b.data...).Gather(idx), keys: make([]*vector.Vector, len(b.keys)), pos: gatherBy(b.pos, idx)}
	if s.codes[0] != nil {
		run.codes = gatherBy(s.codes[0], idx)
	}
	for i, ck := range b.coder.colKey {
		if ck >= 0 {
			// ColRef keys are the data column itself; reuse its gathered
			// form instead of gathering the same vector twice.
			run.keys[i] = run.data.Col(ck)
		} else {
			run.keys[i] = b.keys[i].Gather(idx)
		}
	}
	b.ctx.memShrink(b.bytes)
	b.bytes, b.thr = 0, -1
	return run, nil
}

// compact sorts the buffer and keeps only the top-k rows: the buffer
// becomes the truncated run, whose last row is the new threshold.
func (b *runBuilder) compact() error {
	run, err := b.buildRun()
	if err != nil {
		return err
	}
	b.data, b.keys, b.pos = run.data.Cols(), run.keys, run.pos
	b.bytes = runBytes(run) - 8*int64(len(run.codes))
	b.ctx.memGrow(b.bytes)
	if run.codes != nil && int64(len(b.pos)) == b.limit {
		b.thr = len(b.pos) - 1
		b.thrCode = run.codes[b.thr]
	}
	return nil
}

// spillCurrent sorts the buffer into a run and writes it to the
// builder's spill file. The buffer's charge goes back to the budget and
// its columns are emptied, not dropped: the next run fills the arrays
// this one grew.
func (b *runBuilder) spillCurrent() error {
	run, err := b.buildRun()
	if err != nil {
		return err
	}
	for _, v := range b.data {
		v.Reset()
	}
	for _, v := range b.keys { // a ColRef key is a data column, reset again
		v.Reset()
	}
	b.pos = b.pos[:0]
	if b.file == nil {
		f, err := b.ctx.spillManager().Create(b.label)
		if err != nil {
			return err
		}
		b.file = f
	}
	var onto *mergeRun
	if len(b.runs) > 0 && b.continues(run) {
		onto = b.runs[len(b.runs)-1]
	}
	mr, err := spillSortedRun(b.file, run, b.coder, onto)
	if err != nil {
		return err
	}
	last := []int{len(run.pos) - 1}
	b.tail = &sortedRun{keys: gatherVecs(run.keys, last), pos: gatherBy(run.pos, last)}
	if mr != onto {
		b.st.runs.Add(1)
		b.runs = append(b.runs, mr)
	}
	return nil
}

// continues reports whether run sorts wholly after the rows spilled
// before it, so that its windows extend the last run instead of
// widening the merge by one: a merge holds a window of every run, and
// input that arrives in order — a spilled join's output mostly does, a
// bounded chunk at a time — would otherwise cut a run per chunk under a
// small budget. Rows the comparator cannot order start a run; the merge
// reports them if it compares them.
func (b *runBuilder) continues(run *sortedRun) bool {
	c, err := compareKeyRows(b.coder.keys, run.keys, 0, b.tail.keys, 0)
	return err == nil && (c > 0 || c == 0 && run.pos[0] > b.tail.pos[0])
}

// finish sorts what is still buffered into the builder's last run,
// which stays resident through the whole merge: its bytes remain on
// the query tracker (held) until the merger that consumes the runs
// closes.
func (b *runBuilder) finish() error {
	if len(b.pos) == 0 {
		return nil
	}
	run, err := b.buildRun()
	if err != nil {
		return err
	}
	b.data, b.keys, b.pos = nil, nil, nil
	b.held = runBytes(run)
	b.ctx.memGrow(b.held)
	b.runs = append(b.runs, newMemRun(run))
	return nil
}

// finishBuilders closes run generation: every builder sorts its last
// buffer — concurrently, this is where an in-memory sort does its
// sorting — and the runs of all of them, spilled and resident, feed
// one merger, which owns their files and held bytes from here on.
func finishBuilders(ctx *Context, limit int64, builders []*runBuilder) (*runMerger, error) {
	var coder *sortCoder
	err := parallelFor(len(builders), len(builders), func(_, i int) error { return builders[i].finish() })
	var runs []*mergeRun
	var files []*spill.File
	var held int64
	for _, b := range builders {
		runs = append(runs, b.runs...)
		if b.file != nil {
			files = append(files, b.file)
		}
		held += b.held
		coder = b.coder
	}
	m := newRunMerger(ctx, coder, runs, limit, files, held)
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// runBytes estimates a sorted run's resident footprint: data columns,
// positions, codes and the key columns that do not alias a data column
// (ColRef keys do).
func runBytes(run *sortedRun) int64 {
	n := chunkBytes(run.data) + 8*int64(len(run.pos)+len(run.codes))
	for _, k := range run.keys {
		if !slices.Contains(run.data.Cols(), k) {
			n += vectorBytes(k)
		}
	}
	return n
}

// spillSortedRun writes a sorted run into f — data columns, then the
// non-ColRef key columns, then the position column — and returns a
// file-backed mergeRun that streams it back one window at a time via
// positioned reads (many runs share one file). Evaluated key columns
// are persisted rather than re-derived on read, so spilling never
// re-evaluates key expressions (UDF keys are called exactly once per
// row, and computed keys cost no decode-time work); key codes are not
// written: each window's are recomputed from its key column as it
// loads. coder is nil for keyless runs. Given onto, a run spilled to f
// whose rows all sort before run's, the windows extend it instead.
func spillSortedRun(f *spill.File, run *sortedRun, coder *sortCoder, onto *mergeRun) (*mergeRun, error) {
	nd := run.data.NumCols()
	extras := make([]*vector.Vector, 0, len(run.keys))
	for i, k := range run.keys {
		if coder.colKey[i] < 0 {
			extras = append(extras, k)
		}
	}
	n := run.data.NumRows()
	refs := make([]spill.ChunkRef, 0, (n+vector.DefaultChunkSize-1)/vector.DefaultChunkSize)
	for from := 0; from < n; from += vector.DefaultChunkSize {
		to := min(from+vector.DefaultChunkSize, n)
		cols := make([]*vector.Vector, 0, nd+len(extras)+1)
		for _, c := range run.data.Cols() {
			cols = append(cols, c.Slice(from, to))
		}
		for _, c := range extras {
			cols = append(cols, c.Slice(from, to))
		}
		cols = append(cols, vector.FromInt64s(run.pos[from:to]))
		ref, err := f.WriteChunkRef(cols)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	if onto != nil {
		onto.refs = append(onto.refs, refs...)
		return onto, nil
	}
	// The cursor starts before an empty window, so the first advance
	// loads the run's front row for the merge to see.
	mr := &mergeRun{cur: &sortedRun{data: run.data.Slice(0, 0)}, idx: -1, refs: refs}
	next := 0
	mr.fetch = func() (*sortedRun, error) {
		if next >= len(mr.refs) {
			return nil, nil
		}
		cols, err := f.ReadChunkAt(mr.refs[next])
		if err != nil {
			return nil, err
		}
		next++
		return assembleRunWindow(cols, nd, coder), nil
	}
	return mr, mr.advance()
}

// assembleRunWindow reconstructs a window from a spilled run chunk:
// nd data columns, the non-ColRef key columns, then the position
// column.
func assembleRunWindow(cols []*vector.Vector, nd int, coder *sortCoder) *sortedRun {
	win := &sortedRun{data: vector.NewChunk(cols[:nd]...), pos: cols[len(cols)-1].Int64s()}
	if coder == nil {
		return win
	}
	win.keys = make([]*vector.Vector, len(coder.colKey))
	ei := nd
	for i, ck := range coder.colKey {
		if ck >= 0 {
			win.keys[i] = win.data.Col(ck)
			continue
		}
		win.keys[i] = cols[ei]
		ei++
	}
	win.codes = coder.encode(0, win.keys[0], nil)
	return win
}

// ------------------------------------------------------- run merger

// runMerger streams the k-way merge of sorted runs as chunk-sized
// batches: fully sorted output, emitted incrementally, with an
// optional row bound (LIMIT pushdown) and the same cancellation
// cadence as every other chunk loop.
type runMerger struct {
	lt        *loserTree
	types     []vector.Type
	files     []*spill.File // backing files, released on close
	ctx       *Context
	held      int64 // tracker bytes of the in-memory runs, shrunk on close
	remaining int64 // rows the merge may still emit; <0 unbounded

	// The batch in progress: the windows it draws from and, per output
	// row, which window and which row of it.
	wins  []*sortedRun
	picks []mergePick

	// keepPos asks for pos: the input positions of the rows of the batch
	// next returned last, valid until it is called again.
	keepPos bool
	pos     []int64

	// ranked, when set, is the whole merge decided in advance (rank): the
	// rows of the runs' windows in output order, of which next has
	// emitted the first `emitted`.
	ranked  []mergePick
	emitted int
}

type mergePick struct{ win, row int32 }

// newRunMerger merges runs ordered under coder (nil: by position
// alone) with an optional row bound. held is the
// tracker bytes the in-memory runs occupy; the merger releases them at
// close, when the runs become garbage.
func newRunMerger(ctx *Context, coder *sortCoder, runs []*mergeRun, limit int64, files []*spill.File, held int64) *runMerger {
	m := &runMerger{lt: newLoserTree(coder, runs), files: files, ctx: ctx, held: held, remaining: -1}
	if limit > 0 {
		m.remaining = limit
	}
	for _, r := range runs {
		if !r.done {
			m.types = make([]vector.Type, r.cur.data.NumCols())
			for i := range m.types {
				m.types[i] = r.cur.data.Col(i).Type()
			}
			break
		}
	}
	if coder == nil && len(runs) > 1 && !slices.ContainsFunc(runs, func(r *mergeRun) bool { return r.fetch != nil }) {
		m.rank()
	}
	return m
}

// rank settles a merge by position alone of runs that are all in memory
// (an aggregation's partitions) with one record sort over the rows'
// positions — non-negative, so their own codes: a loser tree replays
// log k matches a row, at sixteen runs most of the serial time a
// parallel aggregation had left. The picks are charged to the budget
// with the runs, the sort's records while it runs.
func (m *runMerger) rank() {
	n := 0
	for _, r := range m.lt.runs {
		if !r.done {
			m.wins = append(m.wins, r.cur)
			n += len(r.cur.pos)
		}
	}
	m.ctx.memGrow(40 * int64(n))
	m.held += 8 * int64(n)
	defer m.ctx.memShrink(32 * int64(n))
	recs := make([]sortRec, 0, 2*n)
	for w, win := range m.wins {
		for row, p := range win.pos {
			recs = append(recs, sortRec{code: uint64(p), row: w<<32 | row})
		}
	}
	sortRecs(recs, recs[n:2*n])
	m.ranked = make([]mergePick, n)
	for i, r := range recs {
		m.ranked[i] = mergePick{int32(r.row >> 32), int32(r.row)}
	}
}

// next emits the next merged batch, nil at end. One batch per call so
// long merges observe cancellation between batches.
func (m *runMerger) next(ctx *Context) (*vector.Chunk, error) {
	if m.remaining == 0 || m.lt == nil {
		return nil, nil
	}
	if ctx.interrupted() {
		return nil, ErrCancelled
	}
	batch := vector.DefaultChunkSize
	if m.remaining >= 0 && int64(batch) > m.remaining {
		batch = int(m.remaining)
	}
	if len(m.lt.runs) == 1 {
		return m.nextSingle(batch)
	}
	// Pop the batch's winners first, noting where each row lives, then
	// gather every output column in one typed pass over the picks.
	if m.ranked != nil {
		m.picks = m.ranked[m.emitted:min(m.emitted+batch, len(m.ranked))]
		m.emitted += len(m.picks)
	} else {
		m.wins, m.picks = m.wins[:0], m.picks[:0]
		for _, r := range m.lt.runs {
			r.slot = -1
		}
		for len(m.picks) < batch {
			w := m.lt.win
			win, row, ok := m.lt.next()
			if !ok {
				break
			}
			r := m.lt.runs[w]
			if r.slot < 0 || m.wins[r.slot] != win {
				r.slot = len(m.wins)
				m.wins = append(m.wins, win)
			}
			m.picks = append(m.picks, mergePick{int32(r.slot), int32(row)})
		}
		if err := m.lt.err; err != nil {
			return nil, err
		}
	}
	if len(m.picks) == 0 {
		return nil, nil
	}
	if m.remaining > 0 {
		m.remaining -= int64(len(m.picks))
	}
	cols := make([]*vector.Vector, len(m.types))
	for c, t := range m.types {
		cols[c] = gatherPicks(t, m.wins, c, m.picks)
	}
	if m.keepPos {
		m.pos = m.pos[:0]
		for _, p := range m.picks {
			m.pos = append(m.pos, m.wins[p.win].pos[p.row])
		}
	}
	return vector.NewChunk(cols...), nil
}

// gatherPicks assembles output column c of a merge batch.
func gatherPicks(t vector.Type, wins []*sortedRun, c int, picks []mergePick) *vector.Vector {
	var out *vector.Vector
	switch t {
	case vector.Bool:
		out = vector.FromBools(pickCells(wins, c, picks, (*vector.Vector).Bools))
	case vector.Int32:
		out = vector.FromInt32s(pickCells(wins, c, picks, (*vector.Vector).Int32s))
	case vector.Int64:
		out = vector.FromInt64s(pickCells(wins, c, picks, (*vector.Vector).Int64s))
	case vector.Float64:
		out = vector.FromFloat64s(pickCells(wins, c, picks, (*vector.Vector).Float64s))
	case vector.String:
		out = vector.FromStrings(pickCells(wins, c, picks, (*vector.Vector).Strings))
	default:
		out = vector.FromBlobs(pickCells(wins, c, picks, (*vector.Vector).Blobs))
	}
	if slices.ContainsFunc(wins, func(w *sortedRun) bool { return w.data.Col(c).Nulls() != nil }) {
		for i, p := range picks {
			if wins[p.win].data.Col(c).IsNull(int(p.row)) {
				out.SetNull(i)
			}
		}
	}
	return out
}

func pickCells[T any](wins []*sortedRun, c int, picks []mergePick, payload func(*vector.Vector) []T) []T {
	srcs := make([][]T, len(wins))
	for i, w := range wins {
		srcs[i] = payload(w.data.Col(c))
	}
	out := make([]T, len(picks))
	for i, p := range picks {
		out[i] = srcs[p.win][p.row]
	}
	return out
}

// nextSingle emits from a lone run without per-row merging: in-memory
// windows slice zero-copy; spilled windows stream through.
func (m *runMerger) nextSingle(batch int) (*vector.Chunk, error) {
	r := m.lt.runs[0]
	if r.done {
		return nil, nil
	}
	win := r.cur
	from := r.idx
	to := from + batch
	if n := win.data.NumRows(); to > n {
		to = n
	}
	// Advance the cursor past the emitted rows (loads the next spilled
	// window when this one drains).
	r.idx = to - 1
	if err := r.advance(); err != nil {
		return nil, err
	}
	if m.remaining > 0 {
		m.remaining -= int64(to - from)
	}
	if m.keepPos {
		m.pos = win.pos[from:to]
	}
	return win.data.Slice(from, to), nil
}

// close releases the merge's backing spill files and returns the
// in-memory runs' bytes to the tracker (idempotent; the query's spill
// manager removes any files missed here at stream close).
func (m *runMerger) close() {
	if m == nil {
		return
	}
	for _, f := range m.files {
		f.Release()
	}
	m.files = nil
	m.ctx.memShrink(m.held)
	m.held = 0
}
