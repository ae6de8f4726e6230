package exec

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"

	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// countPass is the smallest caller the grace engine can have: a pass
// whose resident state counts its rows per key. Raw rows are [key];
// evicted state is [key, count] rows, 16 bytes a key.
type countPass struct {
	g      *grace
	counts []map[int64]int64
	log    *[]string // "level/partition" of every eviction, in order
}

const (
	countedRows = 0
	keyRows     = 1
)

func countLayout() *graceLayout {
	return &graceLayout{label: "count", st: &nodeStats{}, nullable: [2]int{0, 0},
		types: [2][]vector.Type{countedRows: {vector.Int64, vector.Int64}, keyRows: {vector.Int64}}}
}

func newCountPass(g *grace, log *[]string) *countPass {
	cp := &countPass{g: g, counts: make([]map[int64]int64, len(g.parts)), log: log}
	g.evict = func(p int) []*vector.Vector {
		keys := slices.Sorted(maps.Keys(cp.counts[p]))
		ns := make([]int64, len(keys))
		for i, k := range keys {
			ns[i] = cp.counts[p][k]
		}
		cp.counts[p] = nil
		*log = append(*log, fmt.Sprintf("%d/%d", g.level, p))
		return []*vector.Vector{vector.FromInt64s(keys), vector.FromInt64s(ns)}
	}
	return cp
}

// fold counts rows of either stream into partition p.
func (cp *countPass) fold(p int, cols []*vector.Vector, hashes []uint64) (grown int64, err error) {
	if cp.counts[p] == nil {
		cp.counts[p] = map[int64]int64{}
	}
	for r, k := range cols[0].Int64s() {
		if hashes != nil && partitionOf(hashes[r], cp.g.bits, cp.g.level) != p {
			return 0, fmt.Errorf("key %d delivered to partition %d of level %d", k, p, cp.g.level)
		}
		n := int64(1)
		if len(cols) == 2 {
			n = cols[1].Int64s()[r]
		}
		if _, ok := cp.counts[p][k]; !ok {
			grown += 16
		}
		cp.counts[p][k] += n
	}
	return grown, nil
}

// collect ends the pass: resident partitions add their counts to out,
// spilled ones are reloaded into a pass below, which collects in turn.
// It returns the deepest level a pass was made at.
func (cp *countPass) collect(t *testing.T, out map[int64]int64) (deepest int) {
	g := cp.g
	defer g.abandon()
	deepest = g.level
	for p := range g.parts {
		if err := g.flushStreams(p); err != nil {
			t.Fatal(err)
		}
		if !g.parts[p].spilled {
			for k, n := range cp.counts[p] {
				out[k] += n
			}
			g.release(p)
			continue
		}
		if cp.counts[p] != nil {
			t.Fatalf("level %d partition %d is spilled and holds state", g.level, p)
		}
		sub := newCountPass(g.sub(), cp.log)
		for stream := range 2 {
			r := sub.g.newRouter(stream, sub.fold)
			err := g.reload(p, stream, func(cols []*vector.Vector) error {
				return r.route(cols, hashKeyRows(cols[:1], cols[0].Len(), nil), nil)
			})
			if err == nil {
				err = r.finish()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		deepest = max(deepest, sub.collect(t, out))
	}
	return deepest
}

func graceCtx(t *testing.T, budget int64) (*Context, string) {
	ctx, dir := spillCtx(t, 1, budget)
	ctx.mem, ctx.spillMgr = newMemTracker(budget), spill.NewManager(dir, ctx.prof)
	t.Cleanup(func() { ctx.spillMgr.Close() })
	return ctx, dir
}

// TestGraceVictimOrder: eviction takes the largest resident partition,
// ties to the higher index, and stops as soon as the rest fits.
func TestGraceVictimOrder(t *testing.T) {
	ctx, _ := graceCtx(t, 1000)
	var log []string
	cp := newCountPass(newGrace(ctx, countLayout(), 4, 0), &log)
	sized := func(n int64) graceFold {
		return func(p int, cols []*vector.Vector, _ []uint64) (int64, error) {
			_, err := cp.fold(p, cols, nil)
			return n, err
		}
	}
	for _, part := range []struct {
		p     int
		bytes int64
	}{{3, 500}, {7, 900}, {9, 900}, {12, 100}} {
		if err := cp.g.deliver(part.p, keyRows, []*vector.Vector{vector.FromInt64s([]int64{int64(part.p)})}, nil, sized(part.bytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.g.spillUntilFits(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"0/9", "0/7"}; !slices.Equal(log, want) {
		t.Fatalf("evicted %v, want %v", log, want)
	}
	if used := ctx.mem.used.Load(); used != 600 {
		t.Fatalf("%d bytes tracked after the evictions, want the 600 of partitions 3 and 12", used)
	}
	cp.g.abandon()
	if used := ctx.mem.used.Load(); used != 0 {
		t.Fatalf("%d bytes tracked after abandon", used)
	}
}

// TestGraceEveryRowOnce drives the engine with the counting fold: every
// routed row is folded or written exactly once whatever the budget.
// Without one nothing is evicted and nothing touches the disk; under 64
// bytes distinct keys recurse (to the last level: a partition of one key
// is a quarter of that budget) and identical keys stop at maxSpillLevels,
// where the pass evicts nothing.
func TestGraceEveryRowOnce(t *testing.T) {
	distinct, same := make([]int64, 5000), make([]int64, 5000)
	for i := range distinct {
		distinct[i], same[i] = int64(i%1700)<<44, 42
	}
	for _, c := range []struct {
		name      string
		keys      []int64
		budget    int64
		wantLevel int
	}{
		{"no budget", distinct, 0, 0},
		{"distinct keys, 64 bytes", distinct, 64, maxSpillLevels},
		{"one key, 64 bytes", same, 64, maxSpillLevels},
	} {
		ctx := &Context{}
		if c.budget > 0 {
			ctx, _ = graceCtx(t, c.budget)
		}
		var log []string
		cp := newCountPass(newGrace(ctx, countLayout(), 4, 0), &log)
		r := cp.g.newRouter(keyRows, cp.fold)
		for from := 0; from < len(c.keys); from += 1000 {
			cols := []*vector.Vector{vector.FromInt64s(c.keys[from : from+1000])}
			if err := r.route(cols, hashKeyRows(cols, 1000, nil), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.finish(); err != nil {
			t.Fatal(err)
		}
		if c.budget == 0 && (cp.g.file != nil || len(log) > 0) {
			t.Fatalf("%s: evicted %v, file %v", c.name, log, cp.g.file)
		}
		got, want := map[int64]int64{}, map[int64]int64{}
		for _, k := range c.keys {
			want[k]++
		}
		if level := cp.collect(t, got); level != c.wantLevel {
			t.Errorf("%s: deepest pass at level %d, want %d (evictions: %d)", c.name, level, c.wantLevel, len(log))
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: %d keys counted, want %d; counts differ", c.name, len(got), len(want))
		}
		if c.budget > 0 {
			if used := ctx.mem.used.Load(); used != 0 {
				t.Errorf("%s: %d bytes tracked at the end", c.name, used)
			}
			if files, _ := os.ReadDir(ctx.spillMgr.Dir()); len(files) != 0 {
				t.Errorf("%s: %d files left", c.name, len(files))
			}
		}
	}
}

// TestGraceStagingAllocatesNothing: once a partition is spilled and its
// staging has grown to a chunk, routing blocks into it and writing the
// staged chunk allocates nothing: the staging is reset after every
// write, not dropped.
func TestGraceStagingAllocatesNothing(t *testing.T) {
	ctx, _ := graceCtx(t, 2<<20) // blocks of a quarter chunk
	var log []string
	cp := newCountPass(newGrace(ctx, countLayout(), 4, 0), &log)
	r := cp.g.newRouter(keyRows, cp.fold)
	defer r.close()
	defer cp.g.abandon()
	if r.rows != vector.DefaultChunkSize/4 {
		t.Fatalf("blocks of %d rows, want %d", r.rows, vector.DefaultChunkSize/4)
	}
	// A chunk's worth of keys that all belong to partition 0: four blocks
	// staged, and a chunk written each time the next block comes.
	cand := make([]int64, 32*vector.DefaultChunkSize)
	for i := range cand {
		cand[i] = int64(i)
	}
	var keys []int64
	var hashes []uint64
	for i, h := range hashKeyRows([]*vector.Vector{vector.FromInt64s(cand)}, len(cand), nil) {
		if partitionOf(h, 4, 0) == 0 && len(keys) < vector.DefaultChunkSize {
			keys, hashes = append(keys, cand[i]), append(hashes, h)
		}
	}
	cols := []*vector.Vector{vector.FromInt64s(keys)}
	route := func() {
		if err := r.route(cols, hashes, nil); err != nil {
			t.Fatal(err)
		}
	}
	route() // resident: folded
	if err := cp.g.evictPart(0); err != nil {
		t.Fatal(err)
	}
	route() // spilled: the staging grows to a chunk
	if allocs := testing.AllocsPerRun(20, route); allocs != 0 {
		t.Fatalf("%.0f allocations a chunk routed into a spilled partition, want 0", allocs)
	}
	// A chunk a call after the one that filled the staging: AllocsPerRun's
	// warm-up and its 20.
	if refs := len(cp.g.parts[0].streams[keyRows].refs); refs != 21 {
		t.Fatalf("%d chunks written, want 21", refs)
	}
}
