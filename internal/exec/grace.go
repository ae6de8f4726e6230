// The grace-partition engine: how hash aggregation and the hash join
// keep state keyed by a hash within the query's memory budget. A grace is
// one partitioning pass. Its caller brings two row layouts (graceLayout),
// a fold per router that puts rows into the caller's resident state for
// a partition and reports what that state grew by (graceFold), and a way
// to take a partition's state back as rows (evict). The engine owns the
// rest: which partition a hash selects (partitionOf), scatter blocks
// (graceRouter), locks and charges, which partition goes to disk when
// (spillUntilFits), the file, reading it back (reload) and the passes
// below (sub). Nothing exists on disk, and no spill manager is touched,
// before the first eviction. README.md, "Out-of-core execution", has the
// long form.
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

const (
	// spillFanout is the partition fan-out of every level below the first.
	spillFanout = 16

	// maxSpillLevels caps re-partitioning depth: what a partition of the
	// last level that evicts holds (keys that defeat splitting) is
	// processed in memory whatever the budget, degraded gracefully.
	maxSpillLevels = 8

	// graceBlockRows is a scatter block's capacity when no budget says
	// less. A fold touches some eight cache lines a group (slot, key,
	// state columns); 2048 rows into a partition's ~4k groups touch most
	// lines again while they are in L2, 256 rows few (a 64k-group GROUP BY
	// at two workers: 27 vs 33 ms). Under a budget a router's blocks take
	// a sixteenth of it at most, down to the sliver of a chunk one
	// partition gets.
	graceBlockRows = vector.DefaultChunkSize
)

// partitionOf is the partition of hash h at a recursion level of a pass
// whose level 0 is 1<<bits wide: the top bits, then a nibble per level,
// of the hash multiplied once more. Bits of the hash itself will not do:
// the low ones are constant over keys that differ only above bit 40
// (whole-number doubles, integers shifted left), and the top ones are the
// home slot in a partition's own index (groupIndex.home), which one
// partition's keys would crowd into a sixteenth of the slots. The
// product's top word depends on every bit.
func partitionOf(h uint64, bits uint, level int) int {
	if level == 0 {
		return int(h * hashMul >> (64 - bits))
	}
	return int(h * hashMul >> (64 - bits - 4*uint(level)) & (spillFanout - 1))
}

// graceLayout is what a caller's rows look like. Stream 0 is the form
// resident state is evicted in (and whatever else of that form is routed);
// stream 1 the rows that meet that state later. The first nullable
// columns of a stream may hold NULLs.
type graceLayout struct {
	label    string
	types    [2][]vector.Type
	nullable [2]int
	st       *nodeStats // the node's record: partitions spilled and kept
}

// graceFold folds rows of resident partition p, in a stream's layout and
// beside their key hashes, into the caller's state for p, and returns
// the bytes by which that state grew.
type graceFold func(p int, cols []*vector.Vector, hashes []uint64) (grown int64, err error)

// grace is one partitioning pass, shared by every router into it.
type grace struct {
	ctx    *Context
	layout *graceLayout
	bits   uint // level 0 has 1<<bits partitions
	level  int

	// evict takes partition p's resident state from the caller as rows of
	// stream 0. Called under the partition's lock.
	evict func(p int) []*vector.Vector

	// file is what every partition of the pass appends its chunks to (file
	// creation dominates spill cost on most filesystems); the refs in each
	// partition's spillBufs make the partitions independently readable via
	// positioned reads. It is created on the first write, under fileMu;
	// each spillBuf is its partition's.
	fileMu sync.Mutex
	file   *spill.File

	// overflowed is set once the budget sent state here or a partition
	// to disk: only then does report count the pass as spilled.
	overflowed atomic.Bool

	// frozen is set by a caller whose resident set is final and only read
	// from then on: nothing is evicted any more, and resident partitions
	// fold without their lock.
	frozen bool

	// evictMu serializes eviction decisions: routers keep delivering to
	// partitions not being evicted, but one spillUntilFits pass picks
	// victims at a time. Lock order is evictMu → parts[p].mu → fileMu.
	evictMu sync.Mutex
	parts   []gracePart
}

// gracePart is one partition: resident until evicted, spilled from then
// on. bytes is what its resident state holds of the budget.
type gracePart struct {
	mu      sync.Mutex
	spilled bool
	bytes   int64
	streams [2]spillBuf
}

func newGrace(ctx *Context, layout *graceLayout, bits uint, level int) *grace {
	n := spillFanout
	if level == 0 {
		n = 1 << bits
	}
	return &grace{ctx: ctx, layout: layout, bits: bits, level: level, parts: make([]gracePart, n)}
}

// sub returns the pass one spilled partition of g re-partitions into.
func (g *grace) sub() *grace {
	s := newGrace(g.ctx, g.layout, g.bits, g.level+1)
	s.overflowed.Store(true)
	return s
}

// split groups row indexes by the partition their hash selects, into
// sel (reused when given), leaving out the rows marked in skip.
func (g *grace) split(hashes []uint64, skip []bool, sel [][]int) [][]int {
	if sel == nil {
		sel = make([][]int, len(g.parts))
	}
	for p := range sel {
		sel[p] = sel[p][:0]
	}
	for r, h := range hashes {
		if skip == nil || !skip[r] {
			p := partitionOf(h, g.bits, g.level)
			sel[p] = append(sel[p], r)
		}
	}
	return sel
}

// deliver hands rows of one stream to partition p: resident, it folds
// them; spilled, it appends them to the stream. Safe for concurrent use.
func (g *grace) deliver(p, stream int, cols []*vector.Vector, hashes []uint64, fold graceFold) error {
	pt := &g.parts[p]
	if g.frozen && !pt.spilled {
		_, err := fold(p, cols, hashes)
		return err
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.spilled {
		return g.stage(&pt.streams[stream], cols)
	}
	grown, err := fold(p, cols, hashes)
	g.charge(pt, grown)
	return err
}

// charge adds to what a partition's resident state holds of the budget.
func (g *grace) charge(pt *gracePart, n int64) {
	pt.bytes += n
	g.ctx.memGrow(n)
}

// release returns partition p's charge: its state is gone or emitted.
func (g *grace) release(p int) { g.charge(&g.parts[p], -g.parts[p].bytes) }

// spillUntilFits evicts the largest resident partitions until the
// resident footprint passes the budget check (which itself first tries
// to grow the governor lease). It returns at once, no lock taken, while
// the query is within its budget or has none.
func (g *grace) spillUntilFits() error {
	if g.frozen || g.level >= maxSpillLevels || !g.ctx.overBudget() {
		return nil
	}
	g.evictMu.Lock()
	defer g.evictMu.Unlock()
	for {
		var resident int64
		best, bestBytes := -1, int64(0)
		for p := range g.parts {
			pt := &g.parts[p]
			pt.mu.Lock()
			resident += pt.bytes
			if pt.bytes >= bestBytes {
				best, bestBytes = p, pt.bytes
			}
			pt.mu.Unlock()
		}
		if bestBytes == 0 || !g.ctx.shouldSpill(resident) {
			return nil
		}
		if err := g.evictPart(best); err != nil {
			return err
		}
	}
}

// evictPart writes one resident partition's state as a chunk of stream
// 0 and marks the partition spilled: later rows for it go to disk. No
// re-partitioning is needed, everything in it already belongs here.
func (g *grace) evictPart(p int) error {
	pt := &g.parts[p]
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.bytes == 0 {
		return nil
	}
	g.overflowed.Store(true)
	pt.spilled = true
	g.charge(pt, -pt.bytes)
	return g.write(&pt.streams[0], g.evict(p))
}

// stage appends rows to a spilled partition's stream. Staged rows the
// block would take past one chunk are written first, and a block of a
// chunk or more is written as it is, so a chunk holds at most
// DefaultChunkSize rows and the staging stops growing at its first
// chunk: from then on it is reused, emptied after each write.
func (g *grace) stage(b *spillBuf, cols []*vector.Vector) error {
	n := cols[0].Len()
	if b.rows()+n > vector.DefaultChunkSize {
		if err := g.flush(b); err != nil {
			return err
		}
	}
	if n >= vector.DefaultChunkSize {
		return g.write(b, cols)
	}
	b.add(cols)
	return nil
}

// flush writes one stream's staged rows as a chunk and empties the
// staging for the next: WriteChunkRef has encoded them by the time it
// returns, so nothing aliases the columns any more.
func (g *grace) flush(b *spillBuf) error {
	err := g.write(b, b.cols)
	for _, v := range b.cols {
		v.Reset()
	}
	return err
}

// write appends rows to the pass's file as one chunk of stream b.
func (g *grace) write(b *spillBuf, cols []*vector.Vector) error {
	if len(cols) == 0 || cols[0].Len() == 0 {
		return nil
	}
	g.fileMu.Lock()
	defer g.fileMu.Unlock()
	if g.file == nil {
		file, err := g.ctx.spillManager().Create(fmt.Sprintf("%s-l%d", g.layout.label, g.level))
		if err != nil {
			return err
		}
		g.file = file
	}
	ref, err := g.file.WriteChunkRef(cols)
	if err != nil {
		return err
	}
	b.refs = append(b.refs, ref)
	return nil
}

// flushStreams writes out what partition p still stages for disk and
// drops the staging: a stream is flushed so when it gets no more rows
// (one that later does, a join's probe rows, stages them anew).
func (g *grace) flushStreams(p int) error {
	pt := &g.parts[p]
	err := errors.Join(g.flush(&pt.streams[0]), g.flush(&pt.streams[1]))
	pt.streams[0].cols, pt.streams[1].cols = nil, nil
	return err
}

// reload reads one stream of spilled partition p back, a chunk at a time
// in the order written, each verified against the layout that wrote it
// (bytes this process may not have just written): the one way spilled
// rows return.
func (g *grace) reload(p, stream int, fn func(cols []*vector.Vector) error) error {
	for _, ref := range g.parts[p].streams[stream].refs {
		if g.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := g.file.ReadChunkAt(ref)
		if err == nil {
			err = checkSpilled(cols, g.layout.types[stream], g.layout.nullable[stream])
		}
		if err == nil {
			err = fn(cols)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// report counts a finished pass's partitions — on disk, kept — into the
// node's record; a pass that never overflowed the budget was not a
// spill.
func (g *grace) report(spilled, resident int64) {
	if !g.overflowed.Load() {
		return
	}
	g.layout.st.spilled.Add(spilled)
	g.layout.st.resident.Add(resident)
}

// abandon returns every partition's charge to the budget and removes the
// file: the pass is finished, or never will be. Idempotent.
func (g *grace) abandon() {
	for p := range g.parts {
		g.release(p)
	}
	g.file.Release() // nil-safe, and a no-op on a file released before
}

// ------------------------------------------------------- router

// graceRouter is one thread's way into a pass for the rows of one
// stream: a block per partition, allocated once at its capacity (buffers
// grown by append spend the scatter in growslice) and charged to the
// budget until close.
type graceRouter struct {
	g      *grace
	stream int
	fold   graceFold
	rows   int // a block's capacity
	blocks []graceBlock
	sel    [][]int // per-chunk scratch
	bytes  int64
}

// graceBlock holds rows in the stream's layout beside their hashes.
type graceBlock struct {
	cols   []*vector.Vector
	hashes []uint64
}

func (g *grace) newRouter(stream int, fold graceFold) *graceRouter {
	n := len(g.parts)
	r := &graceRouter{g: g, stream: stream, fold: fold, rows: graceBlockRows, blocks: make([]graceBlock, n)}
	width := int64(8) // the hash
	for _, t := range g.layout.types[stream] {
		width += typeWidth(t)
	}
	if g.ctx.spillEnabled() { // all the blocks in a sixteenth of the budget
		r.rows = max(vector.DefaultChunkSize/n, min(r.rows, int(g.ctx.mem.limit()/(16*int64(n)*width))))
	}
	for p := range r.blocks {
		b := &r.blocks[p]
		b.hashes = make([]uint64, 0, r.rows)
		for _, t := range g.layout.types[stream] {
			b.cols = append(b.cols, vector.New(t, r.rows))
		}
	}
	r.bytes = width * int64(r.rows) * int64(n)
	g.ctx.memGrow(r.bytes)
	return r
}

// route scatters rows — cols in the stream's layout, hashes their keys'
// hashKeyRows, skip the rows to leave out — into the partitions' blocks,
// delivering each block that fills, and ends by re-checking the resident
// footprint.
func (r *graceRouter) route(cols []*vector.Vector, hashes []uint64, skip []bool) error {
	r.sel = r.g.split(hashes, skip, r.sel)
	for p, rows := range r.sel {
		for b := &r.blocks[p]; len(rows) > 0; {
			take := rows[:min(len(rows), r.rows-len(b.hashes))]
			for c, v := range b.cols {
				v.AppendGather(cols[c], take)
			}
			for _, row := range take {
				b.hashes = append(b.hashes, hashes[row])
			}
			if rows = rows[len(take):]; len(b.hashes) == r.rows {
				if err := r.flush(p); err != nil {
					return err
				}
			}
		}
	}
	return r.g.spillUntilFits()
}

// flush delivers partition p's block, full or not.
func (r *graceRouter) flush(p int) error {
	b := &r.blocks[p]
	if len(b.hashes) == 0 {
		return nil
	}
	err := r.g.deliver(p, r.stream, b.cols, b.hashes, r.fold)
	for _, v := range b.cols {
		v.Reset()
	}
	b.hashes = b.hashes[:0]
	return err
}

// finish delivers every block and closes the router.
func (r *graceRouter) finish() error {
	for p := range r.blocks {
		if err := r.flush(p); err != nil {
			return err
		}
	}
	r.close()
	return nil
}

// close returns the blocks to the budget; what they still hold is
// dropped. Idempotent, nil-safe.
func (r *graceRouter) close() {
	if r != nil {
		r.g.ctx.memShrink(r.bytes)
		r.bytes = 0
		clear(r.blocks)
	}
}

// ------------------------------------------------------- files

// spillBuf is one partition's stream of spilled rows of one layout: the
// rows staged in memory and the refs of the chunks already written. (A
// join's resident partition keeps its build rows in one too, cols only.)
type spillBuf struct {
	cols []*vector.Vector
	refs []spill.ChunkRef
}

func (b *spillBuf) rows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// add appends rows to the buffer, which takes its layout from the first
// rows it is given.
func (b *spillBuf) add(cols []*vector.Vector) {
	if b.cols == nil {
		b.cols = make([]*vector.Vector, len(cols))
		for i, c := range cols {
			b.cols[i] = vector.New(c.Type(), c.Len())
		}
	}
	for i, c := range cols {
		b.cols[i].AppendVector(c)
	}
}

// errCorruptSpill marks spill chunks that do not have the layout their
// writer gave them: a reader never trusts the bytes it reads back.
var errCorruptSpill = errors.New("exec: corrupt spill chunk")

// checkSpilled verifies that a chunk read back from a spill file has
// the column count, types and equal lengths of the layout that wrote
// it, and no NULL past the first nullable columns.
func checkSpilled(cols []*vector.Vector, types []vector.Type, nullable int) error {
	if len(cols) != len(types) {
		return fmt.Errorf("%w: %d columns, want %d", errCorruptSpill, len(cols), len(types))
	}
	for i, c := range cols {
		if c.Type() != types[i] || c.Len() != cols[0].Len() {
			return fmt.Errorf("%w: column %d is %s[%d], want %s[%d]", errCorruptSpill, i, c.Type(), c.Len(), types[i], cols[0].Len())
		}
		if i >= nullable && c.Nulls() != nil {
			return fmt.Errorf("%w: NULL in column %d", errCorruptSpill, i)
		}
	}
	return nil
}
