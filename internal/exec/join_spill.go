// Grace-partitioned spill for the hash join's build side. When the
// build relation outgrows the query's memory budget, the build drain
// switches to hybrid grace mode:
//
//  1. Build rows partition by a hash of their equi-key. Partitions
//     spill largest-first (ties to the higher index) until the
//     resident set fits; later build rows append to their partition's
//     resident buffer or spill file directly.
//  2. Probe rows re-partition by the same hash on the left keys. Rows
//     landing in a memory-resident partition probe its hash index
//     immediately; rows of spilled partitions are deferred to
//     per-partition probe chunk lists. A spilled partition whose
//     build side still exceeds the budget when loaded re-partitions
//     recursively on the next hash nibble.
//  3. Because deferred output arrives partition-at-a-time — not in
//     probe order — every output row is tagged with the position the
//     in-memory join would have emitted it at: posKey packs
//     (probe chunk, output section, row) and buildSeq is the global
//     build row id. The whole output then flows through the shared
//     external-sort machinery keyed on (posKey, buildSeq), restoring
//     byte-identical in-memory emission order; that sort spills its
//     own runs under the same budget.
//
// The posKey section bits reproduce the in-memory per-chunk emission
// layout exactly: matched rows first (by probe row, then build row),
// then LEFT-join padded rows — unmatched-key rows before
// residual-rejected rows, each in probe-row order, which is the order
// the in-memory probe appends them in.
//
// The probe side stays morsel-parallel under spill when the plan
// probed in parallel: workers claim probe morsels and probe resident
// partitions concurrently, each tagging output through its own run
// builder (all runs merge in one order-restoring sort), and serialize
// only on routing deferred rows to spilled partitions. The sort makes
// worker scheduling an implementation detail, not a semantic one.
// Joins without equi-keys (cross products) and joins whose keys or
// residual contain UDFs never spill — they keep the in-memory path
// regardless of budget.
//
// The level-0 fan-out defaults to 16 partitions but widens (up to 256)
// when the planner estimated the build side large enough that one
// partitioning pass at 16 would still leave oversized partitions
// (plan.ExecHints.FanoutLog2); recursive re-partitioning then starts
// on the first hash nibble above the level-0 bits.
package exec

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
)

// posKey section bits. Probe chunk rows are far below 2^30.
const (
	unmatchedBit = int64(1) << 31 // padded (LEFT join) section of a chunk
	residualBit  = int64(1) << 30 // padded because the residual rejected every match
)

// spillableJoin reports whether the join can grace-partition: it
// needs equi-keys for partitioning, and UDF-free keys/residual (spill
// re-evaluates keys over spilled rows, and the residual runs
// partition-at-a-time rather than chunk-at-a-time).
func spillableJoin(spec *plan.HashJoin) bool {
	if len(spec.LeftKeys) == 0 {
		return false
	}
	if exprsHaveUDF(spec.LeftKeys) || exprsHaveUDF(spec.RightKeys) {
		return false
	}
	return spec.Extra == nil || !exprsHaveUDF([]plan.Expr{spec.Extra})
}

// joinIntKey reports whether the join uses the sign-extended
// single-integer key fast path (the same condition the in-memory
// index uses, decided from static key types).
func joinIntKey(spec *plan.HashJoin) bool {
	if len(spec.LeftKeys) != 1 || len(spec.RightKeys) != 1 {
		return false
	}
	lt, rt := spec.LeftKeys[0].Type(), spec.RightKeys[0].Type()
	intType := func(t vector.Type) bool { return t == vector.Int32 || t == vector.Int64 }
	return intType(lt) && intType(rt)
}

// joinKeyHash returns the partition hash of row r's equi-key and
// whether any key cell is NULL (NULL keys never match and are never
// partitioned). intKey selects the sign-extended single-integer fast
// path so int32 and int64 sides hash identically, mirroring the
// in-memory buildIdx64 fast path.
func joinKeyHash(keyVecs []*vector.Vector, r int, intKey bool, buf *[]byte) (uint64, bool) {
	if intKey {
		kv := keyVecs[0]
		if kv.IsNull(r) {
			return 0, true
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(intKeyAt(kv, r)))
		return hashKeyBytes(b[:]), false
	}
	k := (*buf)[:0]
	for _, kv := range keyVecs {
		if kv.IsNull(r) {
			return 0, true
		}
		k = appendRowKey(k, kv, r)
	}
	*buf = k
	return hashKeyBytes(k), false
}

// joinIndex is one partition's build-side hash index: the build rows,
// their global build ids, and the key lookup maps (the same fast/slow
// split the in-memory join uses).
type joinIndex struct {
	build  *vector.Chunk
	seq    []int64
	intKey bool
	idx64  map[int64][]int32
	idx    map[string][]int32
}

// newJoinIndex builds the index over a partition's build rows,
// evaluating the right key expressions over them.
func newJoinIndex(spec *plan.HashJoin, build *vector.Chunk, seq []int64, intKey bool) (*joinIndex, error) {
	ix := &joinIndex{build: build, seq: seq, intKey: intKey}
	n := build.NumRows()
	keyVecs := make([]*vector.Vector, len(spec.RightKeys))
	for i, k := range spec.RightKeys {
		v, err := Evaluate(k, build)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = v
	}
	if intKey {
		ix.idx64 = make(map[int64][]int32, n)
		kv := keyVecs[0]
		for r := 0; r < n; r++ {
			if kv.IsNull(r) {
				continue
			}
			ix.idx64[intKeyAt(kv, r)] = append(ix.idx64[intKeyAt(kv, r)], int32(r))
		}
		return ix, nil
	}
	ix.idx = make(map[string][]int32, n)
	var key []byte
	for r := 0; r < n; r++ {
		key = key[:0]
		null := false
		for _, kv := range keyVecs {
			if kv.IsNull(r) {
				null = true
				break
			}
			key = appendRowKey(key, kv, r)
		}
		if null {
			continue
		}
		ix.idx[string(key)] = append(ix.idx[string(key)], int32(r))
	}
	return ix, nil
}

// lookup returns the build rows matching probe row r (nil for NULL
// keys or no match).
func (ix *joinIndex) lookup(keyVecs []*vector.Vector, r int, buf *[]byte) []int32 {
	if ix == nil {
		return nil
	}
	if ix.intKey {
		kv := keyVecs[0]
		if kv.IsNull(r) {
			return nil
		}
		return ix.idx64[intKeyAt(kv, r)]
	}
	k := (*buf)[:0]
	for _, kv := range keyVecs {
		if kv.IsNull(r) {
			return nil
		}
		k = appendRowKey(k, kv, r)
	}
	*buf = k
	return ix.idx[string(k)]
}

// joinSpillPart is one grace partition of the join.
type joinSpillPart struct {
	// Resident build state (until/unless spilled).
	build []*vector.Vector
	seq   []int64
	bytes int64
	ix    *joinIndex // built once the drain completes

	spilled   bool
	buildBuf  *rowAppender // spilled: pending build rows [cols..., seq]
	buildRefs []spill.ChunkRef
	probeBuf  *rowAppender // spilled: deferred probe rows [cols..., posBase]
	probeRefs []spill.ChunkRef
}

// joinSpill is the state of a grace-partitioned join.
type joinSpill struct {
	ctx    *Context
	spec   *plan.HashJoin
	intKey bool

	buildTypes []vector.Type
	file       *spill.File // shared by all partitions' build/probe chunks
	parts      []joinSpillPart
	fanoutBits uint  // level-0 partition count is 1<<fanoutBits
	nextSeq    int64 // global build row counter (input order)

	// mu guards the deferred-probe routing (partition buffers and the
	// shared spill file) during the parallel probe; build and
	// post-probe phases are single-threaded.
	mu      sync.Mutex
	sorters []*runBuilder // one per probe worker; runs merge at finish
	outPos  atomic.Int64
	outCols int    // joined output columns (before the 2 tag columns)
	keyBuf  []byte // build/repartition phase scratch (single-threaded)
}

// probeState is one probe worker's private state: its own run builder
// (runs from all workers merge in finishEmit) and key scratch buffer.
type probeState struct {
	sorter *runBuilder
	keyBuf []byte
}

// newProbeState registers a probe worker's private output builder.
func (js *joinSpill) newProbeState() *probeState {
	b := newRunBuilder(js.ctx, joinSortKeys(js.outCols), 0, "join-out")
	js.mu.Lock()
	js.sorters = append(js.sorters, b)
	js.mu.Unlock()
	return &probeState{sorter: b}
}

// part0 returns a key hash's level-0 partition.
func (js *joinSpill) part0(h uint64) int {
	return int(h & uint64(len(js.parts)-1))
}

// subPart returns the recursive partition at level >= 1: the hash
// nibble directly above the bits consumed by shallower levels.
func (js *joinSpill) subPart(h uint64, level int) int {
	return int((h >> (js.fanoutBits + 4*uint(level-1))) & (spillFanout - 1))
}

// joinSortKeys returns the tag sort keys over a joined chunk with
// nOut data columns.
func joinSortKeys(nOut int) []plan.SortKey {
	return []plan.SortKey{
		{Expr: &plan.ColRef{Idx: nOut, Typ: vector.Int64, Name: "__poskey"}},
		{Expr: &plan.ColRef{Idx: nOut + 1, Typ: vector.Int64, Name: "__buildseq"}},
	}
}

// newJoinSpill activates grace partitioning: the build rows
// accumulated so far (acc) are partitioned, then partitions spill
// largest-first until the resident set fits the budget.
func newJoinSpill(ctx *Context, spec *plan.HashJoin, acc []*vector.Vector, accBytes int64, intKey bool) (*joinSpill, error) {
	js := &joinSpill{ctx: ctx, spec: spec, intKey: intKey}
	js.fanoutBits = 4
	if h := spec.Hints.FanoutLog2; h > 4 {
		js.fanoutBits = uint(h)
		if js.fanoutBits > 8 {
			js.fanoutBits = 8
		}
	}
	js.parts = make([]joinSpillPart, 1<<js.fanoutBits)
	js.buildTypes = make([]vector.Type, len(acc))
	for i, c := range acc {
		js.buildTypes[i] = c.Type()
	}
	js.outCols = len(spec.Left.Schema()) + len(spec.Right.Schema())
	if len(acc) > 0 && acc[0].Len() > 0 {
		if err := js.addBuildChunk(vector.NewChunk(acc...)); err != nil {
			return nil, err
		}
	}
	ctx.memShrink(accBytes) // rows now live in per-partition state
	if err := js.spillUntilFits(); err != nil {
		return nil, err
	}
	return js, nil
}

// ensureFile lazily creates the join's shared spill file.
func (js *joinSpill) ensureFile() (*spill.File, error) {
	if js.file == nil {
		f, err := js.ctx.spillManager().Create("join")
		if err != nil {
			return nil, err
		}
		js.file = f
	}
	return js.file, nil
}

// writeBuf flushes a partition buffer into the shared spill file.
func (js *joinSpill) writeBuf(a *rowAppender, refs *[]spill.ChunkRef) error {
	if a.rows() == 0 {
		return nil
	}
	f, err := js.ensureFile()
	if err != nil {
		return err
	}
	ref, err := f.WriteChunkRef(a.cols)
	if err != nil {
		return err
	}
	*refs = append(*refs, ref)
	a.reset()
	return nil
}

// addBuildChunk partitions one chunk of build rows. Every row gets a
// global sequence id in input order (NULL-key rows consume an id but
// are dropped — they can never match, and LEFT-join padding only ever
// references probe rows).
func (js *joinSpill) addBuildChunk(ch *vector.Chunk) error {
	keyVecs := make([]*vector.Vector, len(js.spec.RightKeys))
	for i, k := range js.spec.RightKeys {
		v, err := Evaluate(k, ch)
		if err != nil {
			return err
		}
		keyVecs[i] = v
	}
	n := ch.NumRows()
	start := js.nextSeq
	js.nextSeq += int64(n)
	sel := make([][]int, len(js.parts))
	for r := 0; r < n; r++ {
		h, null := joinKeyHash(keyVecs, r, js.intKey, &js.keyBuf)
		if null {
			continue
		}
		p := js.part0(h)
		sel[p] = append(sel[p], r)
	}
	rowBytes := chunkBytes(ch)/int64(n) + 8
	for p := range sel {
		if len(sel[p]) == 0 {
			continue
		}
		pt := &js.parts[p]
		if !pt.spilled {
			if pt.build == nil {
				pt.build = make([]*vector.Vector, len(js.buildTypes))
				for i, t := range js.buildTypes {
					pt.build[i] = vector.New(t, 0)
				}
			}
			for _, r := range sel[p] {
				for c := range pt.build {
					pt.build[c].AppendRowFrom(ch.Col(c), r)
				}
				pt.seq = append(pt.seq, start+int64(r))
			}
			delta := rowBytes * int64(len(sel[p]))
			pt.bytes += delta
			js.ctx.memGrow(delta)
			continue
		}
		if pt.buildBuf == nil {
			pt.buildBuf = newRowAppender(append(append([]vector.Type{}, js.buildTypes...), vector.Int64))
		}
		for _, r := range sel[p] {
			for c := 0; c < len(js.buildTypes); c++ {
				pt.buildBuf.cols[c].AppendRowFrom(ch.Col(c), r)
			}
			pt.buildBuf.cols[len(js.buildTypes)].AppendValue(vector.NewInt64(start + int64(r)))
		}
		if pt.buildBuf.rows() >= vector.DefaultChunkSize {
			if err := js.writeBuf(pt.buildBuf, &pt.buildRefs); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillUntilFits writes resident partitions to disk, largest first
// (ties to the higher index), until the resident build state fits the
// budget's share or everything is spilled.
func (js *joinSpill) spillUntilFits() error {
	resident := int64(0)
	for p := range js.parts {
		if !js.parts[p].spilled {
			resident += js.parts[p].bytes
		}
	}
	for js.ctx.shouldSpill(resident) {
		best := -1
		for p := range js.parts {
			pt := &js.parts[p]
			if pt.spilled || pt.bytes == 0 {
				continue
			}
			if best < 0 || pt.bytes >= js.parts[best].bytes {
				best = p
			}
		}
		if best < 0 {
			return nil
		}
		resident -= js.parts[best].bytes
		if err := js.spillPart(best); err != nil {
			return err
		}
	}
	return nil
}

// spillPart writes one resident partition's build rows to disk and
// frees them.
func (js *joinSpill) spillPart(p int) error {
	pt := &js.parts[p]
	pt.spilled = true
	n := 0
	if len(pt.build) > 0 {
		n = pt.build[0].Len()
	}
	for from := 0; from < n; from += vector.DefaultChunkSize {
		to := from + vector.DefaultChunkSize
		if to > n {
			to = n
		}
		cols := make([]*vector.Vector, 0, len(pt.build)+1)
		for _, c := range pt.build {
			cols = append(cols, c.Slice(from, to))
		}
		cols = append(cols, vector.FromInt64s(pt.seq[from:to]))
		f, err := js.ensureFile()
		if err != nil {
			return err
		}
		ref, err := f.WriteChunkRef(cols)
		if err != nil {
			return err
		}
		pt.buildRefs = append(pt.buildRefs, ref)
	}
	js.ctx.memShrink(pt.bytes)
	pt.build, pt.seq, pt.bytes = nil, nil, 0
	js.ctx.spillStats().addPartitions(1)
	return nil
}

// finishBuild flushes spilled buffers and builds hash indexes over the
// resident partitions, recording the hybrid outcome (partitions on
// disk vs resident) for SpillStats and EXPLAIN ANALYZE.
func (js *joinSpill) finishBuild() error {
	if err := js.spillUntilFits(); err != nil {
		return err
	}
	var resident int64
	for p := range js.parts {
		pt := &js.parts[p]
		if pt.spilled {
			if pt.buildBuf != nil {
				if err := js.writeBuf(pt.buildBuf, &pt.buildRefs); err != nil {
					return err
				}
				pt.buildBuf = nil
			}
			continue
		}
		if pt.build == nil {
			continue
		}
		resident++
		ix, err := newJoinIndex(js.spec, vector.NewChunk(pt.build...), pt.seq, js.intKey)
		if err != nil {
			return err
		}
		pt.ix = ix
	}
	js.ctx.spillStats().addResident(resident)
	if tap := js.spec.Hints.Tap; tap != nil {
		var spilled int64
		for p := range js.parts {
			if js.parts[p].spilled {
				spilled++
			}
		}
		tap.SpillSpilled.Add(spilled)
		tap.SpillResident.Add(resident)
	}
	return nil
}

// probeChunk routes one probe chunk: immediate probing against
// resident partitions, deferral to probe chunk lists for spilled
// ones, and immediate LEFT-join padding for NULL-key rows. Safe for
// concurrent probe workers: resident state is read-only here, output
// goes through the worker's private state, and only the deferral
// buffers (and shared spill file) serialize on js.mu.
func (js *joinSpill) probeChunk(ch *vector.Chunk, chunkIdx int, ps *probeState) error {
	keyVecs := make([]*vector.Vector, len(js.spec.LeftKeys))
	for i, k := range js.spec.LeftKeys {
		v, err := Evaluate(k, ch)
		if err != nil {
			return err
		}
		keyVecs[i] = v
	}
	n := ch.NumRows()
	base := int64(chunkIdx) << 32
	var nullRows []int
	resSel := make([][]int, len(js.parts))
	defSel := make([][]int, len(js.parts))
	anyDeferred := false
	for r := 0; r < n; r++ {
		h, null := joinKeyHash(keyVecs, r, js.intKey, &ps.keyBuf)
		if null {
			nullRows = append(nullRows, r)
			continue
		}
		p := js.part0(h)
		if js.parts[p].spilled {
			defSel[p] = append(defSel[p], r)
			anyDeferred = true
		} else {
			resSel[p] = append(resSel[p], r)
		}
	}
	// Deferred rows: store the full probe row plus its posKey base.
	if anyDeferred {
		js.mu.Lock()
		for p := range defSel {
			if len(defSel[p]) == 0 {
				continue
			}
			pt := &js.parts[p]
			if pt.probeBuf == nil {
				types := make([]vector.Type, ch.NumCols()+1)
				for i := 0; i < ch.NumCols(); i++ {
					types[i] = ch.Col(i).Type()
				}
				types[ch.NumCols()] = vector.Int64
				pt.probeBuf = newRowAppender(types)
			}
			for _, r := range defSel[p] {
				for c := 0; c < ch.NumCols(); c++ {
					pt.probeBuf.cols[c].AppendRowFrom(ch.Col(c), r)
				}
				pt.probeBuf.cols[ch.NumCols()].AppendValue(vector.NewInt64(base | int64(r)))
			}
			if pt.probeBuf.rows() >= vector.DefaultChunkSize {
				if err := js.writeBuf(pt.probeBuf, &pt.probeRefs); err != nil {
					js.mu.Unlock()
					return err
				}
			}
		}
		js.mu.Unlock()
	}
	// Resident partitions probe immediately.
	for p := range resSel {
		if len(resSel[p]) == 0 {
			continue
		}
		if err := js.probeAgainst(js.parts[p].ix, ch, keyVecs, resSel[p], func(r int) int64 { return base | int64(r) }, ps); err != nil {
			return err
		}
	}
	// NULL-key rows never match: LEFT joins pad them immediately.
	return js.emitUnmatched(ch, nullRows, func(r int) int64 { return base | unmatchedBit | int64(r) }, ps)
}

// probeAgainst joins the given probe rows against one partition's
// index, applies the residual, and appends tagged output (matched
// rows, then LEFT-join padding) to the order-restoring sorter. The
// posKey section bits reproduce in-memory emission order: matched
// rows sort by (probe row, build id); padded rows sort after every
// matched row of their chunk, unmatched-key before residual-rejected.
func (js *joinSpill) probeAgainst(ix *joinIndex, ch *vector.Chunk, keyVecs []*vector.Vector, rows []int, baseOf func(r int) int64, ps *probeState) error {
	var leftSel, rightSel []int
	var posKeys, seqs []int64
	// Per-row match bookkeeping exists only to decide LEFT-join
	// padding; the inner-join hot path skips it.
	var matched map[int]bool
	if js.spec.Kind == sql.LeftJoin {
		matched = make(map[int]bool, len(rows))
	}
	for _, r := range rows {
		for _, m := range ix.lookup(keyVecs, r, &ps.keyBuf) {
			leftSel = append(leftSel, r)
			rightSel = append(rightSel, int(m))
			posKeys = append(posKeys, baseOf(r))
			seqs = append(seqs, ix.seq[m])
			if matched != nil {
				matched[r] = true
			}
		}
	}
	var rejected []int
	if len(leftSel) > 0 {
		leftCols := ch.Gather(leftSel).Cols()
		rightCols := ix.build.Gather(rightSel).Cols()
		joined := vector.NewChunk(append(leftCols, rightCols...)...)
		if js.spec.Extra != nil {
			pred, err := Evaluate(js.spec.Extra, joined)
			if err != nil {
				return err
			}
			if pred.Type() != vector.Bool {
				return fmt.Errorf("exec: join condition must be boolean, got %s", pred.Type())
			}
			sel := make([]int, 0, joined.NumRows())
			keep := make(map[int]bool, len(rows))
			for i := 0; i < joined.NumRows(); i++ {
				if !pred.IsNull(i) && pred.Bools()[i] {
					sel = append(sel, i)
					keep[leftSel[i]] = true
				}
			}
			if len(sel) != joined.NumRows() {
				joined = joined.Gather(sel)
				nk := make([]int64, len(sel))
				ns := make([]int64, len(sel))
				for i, si := range sel {
					nk[i] = posKeys[si]
					ns[i] = seqs[si]
				}
				posKeys, seqs = nk, ns
			}
			if matched != nil {
				for _, r := range rows {
					if matched[r] && !keep[r] {
						rejected = append(rejected, r)
						matched[r] = false
					}
				}
			}
		}
		if err := js.emitTagged(joined, posKeys, seqs, ps); err != nil {
			return err
		}
	}
	if js.spec.Kind != sql.LeftJoin {
		return nil
	}
	// matched[r] is false both for never-matched rows and for rows
	// whose every match the residual rejected; the latter are in
	// `rejected` and pad into their own (later) section.
	rejectedSet := make(map[int]bool, len(rejected))
	for _, r := range rejected {
		rejectedSet[r] = true
	}
	var unmatched []int
	for _, r := range rows {
		if !matched[r] && !rejectedSet[r] {
			unmatched = append(unmatched, r)
		}
	}
	if err := js.emitUnmatched(ch, unmatched, func(r int) int64 { return baseOf(r) | unmatchedBit }, ps); err != nil {
		return err
	}
	return js.emitUnmatched(ch, rejected, func(r int) int64 { return baseOf(r) | unmatchedBit | residualBit }, ps)
}

// emitUnmatched appends NULL-padded output rows for unmatched LEFT
// probe rows.
func (js *joinSpill) emitUnmatched(ch *vector.Chunk, rows []int, keyOf func(r int) int64, ps *probeState) error {
	if len(rows) == 0 || js.spec.Kind != sql.LeftJoin {
		return nil
	}
	padded := padRightNull(js.spec.Right.Schema(), ch, rows)
	posKeys := make([]int64, len(rows))
	for i, r := range rows {
		posKeys[i] = keyOf(r)
	}
	return js.emitTagged(padded, posKeys, make([]int64, len(rows)), ps)
}

// emitTagged appends output rows with their (posKey, buildSeq) tags to
// the worker's order-restoring run builder. outPos only reserves
// distinct position ranges per builder chunk — the restoration sort
// keys on the tags, so reservation order across workers is irrelevant.
func (js *joinSpill) emitTagged(out *vector.Chunk, posKeys, seqs []int64, ps *probeState) error {
	if out.NumRows() == 0 {
		return nil
	}
	cols := append(append([]*vector.Vector{}, out.Cols()...),
		vector.FromInt64s(posKeys), vector.FromInt64s(seqs))
	n := int64(out.NumRows())
	base := js.outPos.Add(n) - n
	return ps.sorter.add(vector.NewChunk(cols...), base)
}

// processSpilled joins every spilled partition: its deferred probe
// rows against its build rows, recursing when a partition's build
// side still exceeds the budget. Runs after all probe workers have
// joined (single-threaded).
func (js *joinSpill) processSpilled(ps *probeState) error {
	for p := range js.parts {
		pt := &js.parts[p]
		if !pt.spilled {
			continue
		}
		if pt.probeBuf != nil {
			if err := js.writeBuf(pt.probeBuf, &pt.probeRefs); err != nil {
				return err
			}
			pt.probeBuf = nil
		}
		if err := js.processPart(js.file, pt.buildRefs, pt.probeRefs, 1, ps); err != nil {
			return err
		}
	}
	if js.file != nil {
		js.file.Release()
		js.file = nil
	}
	return nil
}

// processPart joins one spilled partition. level is the recursion
// depth, selecting the hash bits used if the partition must
// re-partition.
func (js *joinSpill) processPart(f *spill.File, buildRefs, probeRefs []spill.ChunkRef, level int, ps *probeState) error {
	if len(probeRefs) == 0 {
		return nil // no probe rows: inner joins and LEFT pads both emit nothing
	}
	// Load the partition's build side.
	var acc []*vector.Vector
	var seqs []int64
	var bytes int64
	for _, ref := range buildRefs {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := f.ReadChunkAt(ref)
		if err != nil {
			return err
		}
		nb := len(cols) - 1
		if acc == nil {
			acc = make([]*vector.Vector, nb)
			for i := 0; i < nb; i++ {
				acc[i] = vector.New(cols[i].Type(), 0)
			}
		}
		for i := 0; i < nb; i++ {
			acc[i].AppendVector(cols[i])
			bytes += vectorBytes(cols[i])
		}
		seqs = append(seqs, cols[nb].Int64s()...)
		bytes += 8 * int64(cols[nb].Len())
	}
	js.ctx.memGrow(bytes)
	defer js.ctx.memShrink(bytes)

	if js.ctx.shouldSpill(bytes) && level < maxSpillLevels {
		return js.repartition(f, acc, seqs, probeRefs, level, ps)
	}

	var ix *joinIndex
	if len(seqs) > 0 {
		var err error
		ix, err = newJoinIndex(js.spec, vector.NewChunk(acc...), seqs, js.intKey)
		if err != nil {
			return err
		}
	}
	for _, ref := range probeRefs {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := f.ReadChunkAt(ref)
		if err != nil {
			return err
		}
		np := len(cols) - 1
		probeData := vector.NewChunk(cols[:np]...)
		tags := cols[np].Int64s()
		keyVecs := make([]*vector.Vector, len(js.spec.LeftKeys))
		for i, k := range js.spec.LeftKeys {
			v, err := Evaluate(k, probeData)
			if err != nil {
				return err
			}
			keyVecs[i] = v
		}
		rows := make([]int, probeData.NumRows())
		for i := range rows {
			rows[i] = i
		}
		if err := js.probeAgainst(ix, probeData, keyVecs, rows, func(r int) int64 { return tags[r] }, ps); err != nil {
			return err
		}
	}
	return nil
}

// repartition splits an oversized spilled partition on the next hash
// nibble and recurses.
func (js *joinSpill) repartition(f *spill.File, acc []*vector.Vector, seqs []int64, probeRefs []spill.ChunkRef, level int, ps *probeState) error {
	sub, err := js.ctx.spillManager().Create("join-sub")
	if err != nil {
		return err
	}
	defer sub.Release()
	var subBuild, subProbe [spillFanout][]spill.ChunkRef

	// Route build rows.
	if len(seqs) > 0 {
		build := vector.NewChunk(acc...)
		keyVecs := make([]*vector.Vector, len(js.spec.RightKeys))
		for i, k := range js.spec.RightKeys {
			v, err := Evaluate(k, build)
			if err != nil {
				return err
			}
			keyVecs[i] = v
		}
		var sel [spillFanout][]int
		for r := 0; r < build.NumRows(); r++ {
			h, null := joinKeyHash(keyVecs, r, js.intKey, &js.keyBuf)
			if null {
				continue // cannot happen: NULL keys were dropped at level 0
			}
			p := js.subPart(h, level)
			sel[p] = append(sel[p], r)
		}
		for p := range sel {
			if len(sel[p]) == 0 {
				continue
			}
			for from := 0; from < len(sel[p]); from += vector.DefaultChunkSize {
				to := from + vector.DefaultChunkSize
				if to > len(sel[p]) {
					to = len(sel[p])
				}
				part := build.Gather(sel[p][from:to])
				sq := make([]int64, 0, to-from)
				for _, r := range sel[p][from:to] {
					sq = append(sq, seqs[r])
				}
				cols := append(append([]*vector.Vector{}, part.Cols()...), vector.FromInt64s(sq))
				ref, err := sub.WriteChunkRef(cols)
				if err != nil {
					return err
				}
				subBuild[p] = append(subBuild[p], ref)
			}
			js.ctx.spillStats().addPartitions(1)
		}
	}

	// Route deferred probe rows (tag column rides along).
	for _, ref := range probeRefs {
		if js.ctx.interrupted() {
			return ErrCancelled
		}
		cols, err := f.ReadChunkAt(ref)
		if err != nil {
			return err
		}
		np := len(cols) - 1
		probeData := vector.NewChunk(cols[:np]...)
		keyVecs := make([]*vector.Vector, len(js.spec.LeftKeys))
		for i, k := range js.spec.LeftKeys {
			v, err := Evaluate(k, probeData)
			if err != nil {
				return err
			}
			keyVecs[i] = v
		}
		var sel [spillFanout][]int
		for r := 0; r < probeData.NumRows(); r++ {
			h, null := joinKeyHash(keyVecs, r, js.intKey, &js.keyBuf)
			if null {
				continue // cannot happen: NULL keys were padded at level 0
			}
			p := js.subPart(h, level)
			sel[p] = append(sel[p], r)
		}
		all := vector.NewChunk(cols...)
		for p := range sel {
			if len(sel[p]) == 0 {
				continue
			}
			ref, err := sub.WriteChunkRef(all.Gather(sel[p]).Cols())
			if err != nil {
				return err
			}
			subProbe[p] = append(subProbe[p], ref)
		}
	}

	for p := 0; p < spillFanout; p++ {
		if err := js.processPart(sub, subBuild[p], subProbe[p], level+1, ps); err != nil {
			return err
		}
	}
	return nil
}

// finishEmit closes the probe phase: every probe worker's runs merge
// into final output order. The caller strips the two tag columns.
func (js *joinSpill) finishEmit() (*runMerger, error) {
	return finishBuilders(js.ctx, -1, js.sorters)
}

// release frees any files the spill state still holds (the manager
// sweeps anything missed at stream close).
func (js *joinSpill) release() {
	if js == nil {
		return
	}
	if js.file != nil {
		js.file.Release()
		js.file = nil
	}
}
