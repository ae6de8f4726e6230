// Sorted-run machinery shared by the sort operators, the spilled
// aggregate's ordered emission and the spilled join's order-restoring
// external sort: run generation (runBuilder), loser-tree k-way merge
// over streaming run cursors (loserTree / runMerger), and spill of
// whole sorted runs to temp files when the query's memory budget is
// exceeded.
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
	"math"
	"runtime"
	"sort"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// sortRunCap bounds how many sorted runs parallel run generation may
// produce. Context.Parallelism is an upper bound on concurrency, but
// producing more runs than physical cores adds no sort parallelism —
// it only widens the merge, which is pure overhead on the consumer.
// Tests override the cap to exercise wide merges on small machines.
// (Budget-forced spilling can still produce more runs than the cap:
// each spill of a worker's buffer is its own run.)
var sortRunCap = runtime.NumCPU()

// compareKeyRows compares row ra of avecs against row rb of bvecs
// under the sort keys, returning the output-order comparison (<0 when
// a precedes b). NULLs sort last ascending, first descending; with the
// Float64 total order in vector.Value.Compare this is transitive even
// over NaN-bearing keys. Serial sort, parallel merge and spilled runs
// share it so every path orders rows identically.
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
// paths for the common column types — this sits under every sort
// comparison and every merge step, where boxing each cell into a
// vector.Value costs more than the comparison itself. The Float64
// path mirrors Value.Compare's total order (NaN greatest, NaN == NaN).
func compareKeyVals(av *vector.Vector, ra int, bv *vector.Vector, rb int) (int, error) {
	if t := av.Type(); t == bv.Type() {
		switch t {
		case vector.Int64:
			return cmpOrdered(av.Int64s()[ra], bv.Int64s()[rb]), nil
		case vector.Float64:
			a, b := av.Float64s()[ra], bv.Float64s()[rb]
			an, bn := math.IsNaN(a), math.IsNaN(b)
			switch {
			case an && bn:
				return 0, nil
			case an:
				return 1, nil
			case bn:
				return -1, nil
			}
			return cmpOrdered(a, b), nil
		case vector.Int32:
			return cmpOrdered(av.Int32s()[ra], bv.Int32s()[rb]), nil
		case vector.String:
			return cmpOrdered(av.Strings()[ra], bv.Strings()[rb]), nil
		}
	}
	return av.Get(ra).Compare(bv.Get(rb))
}

func cmpOrdered[T int32 | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// sortedRun is one fully sorted window of rows: the data columns, the
// evaluated key columns in key order, and each row's unique global
// input position used as the merge tiebreak.
type sortedRun struct {
	data *vector.Chunk
	keys []*vector.Vector
	pos  []int64
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
	done  bool
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
	keys []plan.SortKey
	runs []*mergeRun
	node []int // node[t] = run index of the loser at internal node t
	win  int   // current overall winner, -1 when empty
	err  error // first comparison or window-fetch error; output is invalid after
}

func newLoserTree(keys []plan.SortKey, runs []*mergeRun) *loserTree {
	lt := &loserTree{
		keys: keys,
		runs: runs,
		node: make([]int, len(runs)),
		win:  -1,
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

// beats reports whether run a's front row precedes run b's. Exhausted
// runs lose to everything, so the winner is exhausted only when every
// run is.
func (lt *loserTree) beats(a, b int) bool {
	if lt.err != nil {
		return false
	}
	ra, rb := lt.runs[a], lt.runs[b]
	if ra.done || rb.done {
		return rb.done && !ra.done
	}
	c, err := compareKeyRows(lt.keys, ra.cur.keys, ra.idx, rb.cur.keys, rb.idx)
	if err != nil {
		lt.err = err
		return false
	}
	if c != 0 {
		return c < 0
	}
	// Global input positions are unique, so the tiebreak is total and
	// the merge order deterministic.
	return ra.cur.pos[ra.idx] < rb.cur.pos[rb.idx]
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
// query's tracked footprint exceeds the budget; with a small limit
// hint it keeps only the top-k rows via periodic compaction, so a
// `ORDER BY ... LIMIT k` never materializes more than O(k) rows per
// builder. Builders are single-goroutine; parallel sort gives each
// worker its own, sharing the query-wide tracker.
type runBuilder struct {
	ctx    *Context
	keys   []plan.SortKey
	colKey []int // key i -> data column index for ColRef keys, else -1
	limit  int64 // top-k bound (offset+count); <=0 unbounded
	label  string

	data      []*vector.Vector // accumulated data columns
	extraKeys []*vector.Vector // accumulated non-ColRef key columns
	pos       []int64
	bytes     int64 // tracked estimate for the current buffer

	file *spill.File // shared by all of this builder's spilled runs
	runs []*mergeRun // spilled runs completed so far
	held int64       // tracker bytes of the final in-memory run
}

func newRunBuilder(ctx *Context, keys []plan.SortKey, limit int64, label string) *runBuilder {
	colKey := make([]int, len(keys))
	for i, k := range keys {
		colKey[i] = -1
		if cr, ok := k.Expr.(*plan.ColRef); ok {
			colKey[i] = cr.Idx
		}
	}
	return &runBuilder{ctx: ctx, keys: keys, colKey: colKey, limit: limit, label: label}
}

// add appends one chunk. Row r's global position is posBase+r; bases
// must be unique and non-overlapping across all add calls of all
// builders feeding one merge (callers use a running row count or
// morsel<<32).
func (b *runBuilder) add(ch *vector.Chunk, posBase int64) error {
	n := ch.NumRows()
	if n == 0 {
		return nil
	}
	if b.data == nil {
		b.data = make([]*vector.Vector, ch.NumCols())
		for i := range b.data {
			b.data[i] = vector.New(ch.Col(i).Type(), n)
		}
	}
	var added int64
	for i := range b.data {
		b.data[i].AppendVector(ch.Col(i))
		added += vectorBytes(ch.Col(i))
	}
	ei := 0
	for ki, k := range b.keys {
		if b.colKey[ki] >= 0 {
			continue
		}
		kv, err := Evaluate(k.Expr, ch)
		if err != nil {
			return err
		}
		if b.extraKeys == nil {
			b.extraKeys = make([]*vector.Vector, b.numExtraKeys())
		}
		if b.extraKeys[ei] == nil {
			b.extraKeys[ei] = vector.New(kv.Type(), n)
		}
		b.extraKeys[ei].AppendVector(kv)
		added += vectorBytes(kv)
		ei++
	}
	for r := 0; r < n; r++ {
		b.pos = append(b.pos, posBase+int64(r))
	}
	added += 8 * int64(n)
	b.bytes += added
	b.ctx.memGrow(added)

	if b.limit > 0 && int64(len(b.pos)) >= 2*b.limit && len(b.pos) >= topKCompactFloor {
		if err := b.compact(); err != nil {
			return err
		}
	}
	if len(b.pos) > 0 && b.ctx.shouldSpill(b.bytes) {
		return b.spillCurrent()
	}
	return nil
}

func (b *runBuilder) numExtraKeys() int {
	n := 0
	for _, ck := range b.colKey {
		if ck < 0 {
			n++
		}
	}
	return n
}

// keyVecs resolves the key columns over the current buffer.
func (b *runBuilder) keyVecs() []*vector.Vector {
	out := make([]*vector.Vector, len(b.keys))
	ei := 0
	for i, ck := range b.colKey {
		if ck >= 0 {
			out[i] = b.data[ck]
			continue
		}
		out[i] = b.extraKeys[ei]
		ei++
	}
	return out
}

// buildRun sorts the current buffer by (keys, position) into a run,
// truncated to the top-k limit when one is set, and resets the buffer.
func (b *runBuilder) buildRun() (*sortedRun, error) {
	keyVecs := b.keyVecs()
	idx := make([]int, len(b.pos))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	// The position tiebreak is explicit (not via sort stability):
	// after a top-k compaction or a spill the buffer is no longer in
	// position order, so stability alone would not reproduce it.
	sort.Slice(idx, func(x, y int) bool {
		a, bi := idx[x], idx[y]
		c, err := compareKeyRows(b.keys, keyVecs, a, keyVecs, bi)
		if err != nil {
			sortErr = err
			return false
		}
		if c != 0 {
			return c < 0
		}
		return b.pos[a] < b.pos[bi]
	})
	if sortErr != nil {
		return nil, sortErr
	}
	if b.limit > 0 && int64(len(idx)) > b.limit {
		idx = idx[:b.limit]
	}
	data := vector.NewChunk(b.data...)
	sortedData := data.Gather(idx)
	sortedPos := make([]int64, len(idx))
	for i, r := range idx {
		sortedPos[i] = b.pos[r]
	}
	sortedKeys := make([]*vector.Vector, len(b.keys))
	ei := 0
	for i, ck := range b.colKey {
		if ck >= 0 {
			// ColRef keys are the data column itself; reuse its gathered
			// form instead of gathering the same vector twice.
			sortedKeys[i] = sortedData.Col(ck)
			continue
		}
		sortedKeys[i] = b.extraKeys[ei].Gather(idx)
		ei++
	}
	b.ctx.memShrink(b.bytes)
	b.data, b.extraKeys, b.pos, b.bytes = nil, nil, nil, 0
	return &sortedRun{data: sortedData, keys: sortedKeys, pos: sortedPos}, nil
}

// compact sorts the buffer and keeps only the top-k rows, re-seeding
// the accumulators from the truncated run.
func (b *runBuilder) compact() error {
	run, err := b.buildRun()
	if err != nil {
		return err
	}
	b.adoptRun(run)
	return nil
}

// adoptRun replaces the buffer with a run's rows.
func (b *runBuilder) adoptRun(run *sortedRun) {
	b.data = run.data.Cols()
	b.pos = run.pos
	if ne := b.numExtraKeys(); ne > 0 {
		b.extraKeys = make([]*vector.Vector, 0, ne)
		for i, ck := range b.colKey {
			if ck < 0 {
				b.extraKeys = append(b.extraKeys, run.keys[i])
			}
		}
	}
	var bytes int64
	for _, c := range b.data {
		bytes += vectorBytes(c)
	}
	for _, c := range b.extraKeys {
		bytes += vectorBytes(c)
	}
	bytes += 8 * int64(len(b.pos))
	b.bytes = bytes
	b.ctx.memGrow(bytes)
}

// spillCurrent sorts the buffer into a run and writes it to the
// builder's spill file, freeing the buffer's memory.
func (b *runBuilder) spillCurrent() error {
	run, err := b.buildRun()
	if err != nil {
		return err
	}
	if b.file == nil {
		f, err := b.ctx.spillManager().Create(b.label)
		if err != nil {
			return err
		}
		b.file = f
	}
	mr, err := spillSortedRun(b.file, run, b.colKey)
	if err != nil {
		return err
	}
	b.ctx.spillStats().addRuns(1)
	b.runs = append(b.runs, mr)
	return nil
}

// finish returns every run the builder produced — the spilled runs
// plus the final in-memory run — and the spill file backing them (nil
// when nothing spilled). The final run stays resident through the
// whole merge, so its bytes remain on the query tracker (heldBytes);
// the merger that consumes the runs shrinks them at close. The caller
// owns releasing the file once the merge is done.
func (b *runBuilder) finish() ([]*mergeRun, *spill.File, error) {
	if len(b.pos) > 0 {
		run, err := b.buildRun()
		if err != nil {
			return nil, b.file, err
		}
		b.held = runBytes(run)
		b.ctx.memGrow(b.held)
		b.runs = append(b.runs, newMemRun(run))
	}
	return b.runs, b.file, nil
}

// heldBytes reports the tracker bytes the builder's in-memory run
// still occupies after finish.
func (b *runBuilder) heldBytes() int64 { return b.held }

// runBytes estimates a sorted run's resident footprint. Key columns
// aliasing data columns (ColRef keys) are not double-counted.
func runBytes(run *sortedRun) int64 {
	n := chunkBytes(run.data) + 8*int64(len(run.pos))
	for _, k := range run.keys {
		alias := false
		for _, c := range run.data.Cols() {
			if c == k {
				alias = true
				break
			}
		}
		if !alias {
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
// row, and computed keys cost no decode-time work).
func spillSortedRun(f *spill.File, run *sortedRun, colKey []int) (*mergeRun, error) {
	nd := run.data.NumCols()
	var extras []*vector.Vector
	for i, ck := range colKey {
		if ck < 0 {
			extras = append(extras, run.keys[i])
		}
	}
	n := run.data.NumRows()
	refs := make([]spill.ChunkRef, 0, (n+vector.DefaultChunkSize-1)/vector.DefaultChunkSize)
	for from := 0; from < n; from += vector.DefaultChunkSize {
		to := from + vector.DefaultChunkSize
		if to > n {
			to = n
		}
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
	mr := &mergeRun{}
	next := 0
	mr.fetch = func() (*sortedRun, error) {
		if next >= len(refs) {
			return nil, nil
		}
		cols, err := f.ReadChunkAt(refs[next])
		if err != nil {
			return nil, err
		}
		next++
		return assembleRunWindow(cols, nd, colKey)
	}
	// Load the first window so the merge sees the run's front row.
	win, err := mr.fetch()
	if err != nil {
		return nil, err
	}
	if win == nil || win.data.NumRows() == 0 {
		mr.done = true
		return mr, nil
	}
	mr.cur = win
	return mr, nil
}

// assembleRunWindow reconstructs a window from a spilled run chunk:
// nd data columns, the non-ColRef key columns, then the position
// column.
func assembleRunWindow(cols []*vector.Vector, nd int, colKey []int) (*sortedRun, error) {
	data := vector.NewChunk(cols[:nd]...)
	keys := make([]*vector.Vector, len(colKey))
	ei := nd
	for i, ck := range colKey {
		if ck >= 0 {
			keys[i] = data.Col(ck)
			continue
		}
		keys[i] = cols[ei]
		ei++
	}
	pos := cols[len(cols)-1].Int64s()
	return &sortedRun{data: data, keys: keys, pos: pos}, nil
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
}

// newRunMerger merges runs with an optional row bound. held is the
// tracker bytes the in-memory runs occupy (per runBuilder.heldBytes);
// the merger releases them at close, when the runs become garbage.
func newRunMerger(ctx *Context, keys []plan.SortKey, runs []*mergeRun, limit int64, files []*spill.File, held int64) *runMerger {
	m := &runMerger{lt: newLoserTree(keys, runs), files: files, ctx: ctx, held: held, remaining: -1}
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
	return m
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
	cols := make([]*vector.Vector, len(m.types))
	for i, t := range m.types {
		cols[i] = vector.New(t, batch)
	}
	// Pop winners in contiguous spans: rows consumed from one run's
	// window are consecutive, so while the winner stays put
	// (duplicate-heavy keys, pre-sorted stretches) whole slices copy
	// in bulk.
	emitted := 0
	for emitted < batch {
		w := m.lt.win
		if w < 0 || m.lt.runs[w].done || m.lt.err != nil {
			break
		}
		r := m.lt.runs[w]
		win := r.cur
		start := r.idx
		count := 0
		for emitted < batch && m.lt.win == w && !r.done && r.cur == win && m.lt.err == nil {
			if _, _, ok := m.lt.next(); !ok {
				break
			}
			count++
			emitted++
		}
		if count == 0 {
			break
		}
		if count < 8 { // a slice header per column costs more than a few row copies
			for c := range cols {
				for r := start; r < start+count; r++ {
					cols[c].AppendRowFrom(win.data.Col(c), r)
				}
			}
			continue
		}
		for c := range cols {
			cols[c].AppendVector(win.data.Col(c).Slice(start, start+count))
		}
	}
	if err := m.lt.err; err != nil {
		return nil, err
	}
	if emitted == 0 {
		return nil, nil
	}
	if m.remaining > 0 {
		m.remaining -= int64(emitted)
	}
	return vector.NewChunk(cols...), nil
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
