package engine

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// loadClustered bulk-loads a table of rows sorted/clustered on id so
// zone maps are selective: id ascending, grp clustered, val with
// sprinkled NULLs, cat low-cardinality strings.
func loadClustered(t *testing.T, db *DB, rows int, compress bool) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE e (id BIGINT, grp INTEGER, val DOUBLE, cat VARCHAR)")
	tab, err := db.cat.Table("e")
	if err != nil {
		t.Fatal(err)
	}
	tab.Data.SetCompression(compress)
	ids := make([]int64, rows)
	grps := make([]int32, rows)
	vals := vector.New(vector.Float64, rows)
	cats := make([]string, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		grps[i] = int32(i / 1000)
		if i%37 == 0 {
			vals.AppendValue(vector.Null())
		} else {
			vals.AppendValue(vector.NewFloat64(float64(i%100) / 100))
		}
		cats[i] = fmt.Sprintf("cat-%d", i%7)
	}
	ch := vector.NewChunk(
		vector.FromInt64s(ids), vector.FromInt32s(grps), vals, vector.FromStrings(cats))
	if err := tab.Data.AppendChunk(ch); err != nil {
		t.Fatal(err)
	}
}

// pruningQueries exercises every pushed operator, flipped operands,
// conjunctions, an unpushable <> and predicates over nullable and
// string columns.
var pruningQueries = []string{
	"SELECT id, val FROM e WHERE id >= 7000",
	"SELECT id FROM e WHERE id < 1000",
	"SELECT count(*) AS n FROM e WHERE id = 4242",
	"SELECT id, cat FROM e WHERE id >= 2000 AND id <= 2100",
	"SELECT count(*) AS n FROM e WHERE cat = 'cat-3'",
	"SELECT sum(val) AS s, count(*) AS n FROM e WHERE id > 6000",
	"SELECT id FROM e WHERE val > 0.5 AND id < 500",
	"SELECT count(*) AS n FROM e WHERE id <> 3",
	"SELECT id FROM e WHERE 7777 < id",
	"SELECT grp, count(*) AS n FROM e WHERE id >= 5000 GROUP BY grp",
	"SELECT id FROM e WHERE id > 100000", // prunes everything
}

// Acceptance: compressed + pruned scans return the bytes of the
// uncompressed, unpruned path at every point of difftest.Matrix.
func TestPrunedCompressedMatchesUncompressed(t *testing.T) {
	const rows = storage.SegmentRows*4 + 123
	comp := New()
	comp.TempDir = t.TempDir()
	loadClustered(t, comp, rows, true)
	raw := New()
	raw.Parallelism = 1
	loadClustered(t, raw, rows, false)
	for _, q := range pruningQueries {
		run := at(comp, q)
		if strings.Contains(q, "sum(val)") {
			// val is not dyadic, and a DOUBLE SUM that runs in parallel
			// differs from the serial one in its last bits (see
			// vexdb.DB.SetParallelism). The cost planner runs this small
			// one serially, so it holds with the planner on only.
			run = func(p difftest.Point) (*vector.Table, error) {
				p.Planner = true
				return at(comp, q)(p)
			}
		}
		if d := difftest.Diff(difftest.Matrix(t, q, 64<<10, run), mustQuery(t, raw, q)); d != "" {
			t.Fatalf("%s: compressed differs from raw: %s", q, d)
		}
	}
}

// Selective scans must actually skip segments on the compressed
// store, and never on the uncompressed one; the skip counters must
// surface through the ResultSet and add up in the table's stats.
func TestPruningScanStats(t *testing.T) {
	const rows = storage.SegmentRows * 4 // 4 sealed segments
	const q = "SELECT count(*) AS n FROM e WHERE id >= 7000"
	for _, compress := range []bool{true, false} {
		db := New()
		db.TempDir = t.TempDir()
		loadClustered(t, db, rows, compress)
		var scans atomic.Int64
		tab := difftest.Matrix(t, q, 64<<10, func(p difftest.Point) (*vector.Table, error) {
			tab, rs, err := queryAt(db, p, q)
			if err != nil {
				return nil, err
			}
			// ids 7000..8191 live in the last segment only; the
			// uncompressed reference never prunes.
			if st := rs.ScanStats(); compress && (st.Skipped() != 3 || st.Scanned() != 1) || !compress && st.Skipped() != 0 {
				return nil, fmt.Errorf("compress=%v: scanned=%d skipped=%d", compress, st.Scanned(), st.Skipped())
			}
			scans.Add(1)
			return tab, nil
		})
		if n := tab.Cols[0].Get(0).Int64(); n != int64(rows-7000) {
			t.Fatalf("compress=%v: count = %d", compress, n)
		}
		e, err := db.cat.Table("e")
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Data.Stats().SegmentsSkipped; compress && got != 3*scans.Load() || !compress && got != 0 {
			t.Fatalf("compress=%v: cumulative skipped = %d after %d queries", compress, got, scans.Load())
		}
	}
}

// loadDim loads a small clustered dimension table keyed to e.grp.
func loadDim(t *testing.T, db *DB, rows int, compress bool) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE d (k INTEGER, tag VARCHAR, w DOUBLE)")
	tab, err := db.cat.Table("d")
	if err != nil {
		t.Fatal(err)
	}
	tab.Data.SetCompression(compress)
	ks := make([]int32, rows)
	tags := make([]string, rows)
	ws := vector.New(vector.Float64, rows)
	for i := 0; i < rows; i++ {
		ks[i] = int32(i)
		tags[i] = fmt.Sprintf("tag-%d", i%5)
		ws.AppendValue(vector.NewFloat64(float64(i) / 8))
	}
	ch := vector.NewChunk(vector.FromInt32s(ks), vector.FromStrings(tags), ws)
	if err := tab.Data.AppendChunk(ch); err != nil {
		t.Fatal(err)
	}
}

// joinPruningQueries place col <op> const conjuncts through the join
// on either side's scan: probe side, build side, both sides, and the
// LEFT join's right input (copied there: the WHERE above also rejects
// the NULL-padded rows a pruned build row leaves). skipped is how many
// of e's segments they skip; d is the mutable tail alone, which no
// conjunct skips. Each query's twin writes every placed conjunct c as
// NOT (NOT (c)), which no pass moves and no zone map refutes.
var joinPruningQueries = []struct {
	q, twin string
	skipped int64
}{
	{"SELECT e.id, d.tag FROM e JOIN d ON e.grp = d.k WHERE e.id >= 7000",
		"SELECT e.id, d.tag FROM e JOIN d ON e.grp = d.k WHERE NOT (NOT (e.id >= 7000))", 3},
	{"SELECT count(*) AS n FROM e JOIN d ON e.grp = d.k WHERE d.w > 0.5",
		"SELECT count(*) AS n FROM e JOIN d ON e.grp = d.k WHERE NOT (NOT (d.w > 0.5))", 0},
	{"SELECT e.id, d.w FROM e JOIN d ON e.grp = d.k WHERE e.id < 1200 AND d.w <= 0.25",
		"SELECT e.id, d.w FROM e JOIN d ON e.grp = d.k WHERE NOT (NOT (e.id < 1200)) AND NOT (NOT (d.w <= 0.25))", 3},
	{"SELECT e.id, d.tag FROM e LEFT JOIN d ON e.grp = d.k WHERE d.w > 0.125",
		"SELECT e.id, d.tag FROM e LEFT JOIN d ON e.grp = d.k WHERE NOT (NOT (d.w > 0.125))", 0},
	{"SELECT sum(e.val) AS s FROM e JOIN d ON e.grp = d.k WHERE e.id > 6000 AND d.tag = 'tag-3'",
		"SELECT sum(e.val) AS s FROM e JOIN d ON e.grp = d.k WHERE NOT (NOT (e.id > 6000)) AND NOT (NOT (d.tag = 'tag-3'))", 2},
}

// Differential: join results with conjuncts placed on pruned compressed
// scans return the bytes of the uncompressed, unpruned path, and of
// their twins that nothing prunes, at every point of difftest.Matrix;
// and at every point the placed conjuncts skip the same segments, which
// EXPLAIN ANALYZE prints on the scans that skipped them.
func TestJoinPushdownPrunedMatchesUnpruned(t *testing.T) {
	const rows = storage.SegmentRows*4 + 123
	comp := New()
	comp.TempDir = t.TempDir()
	loadClustered(t, comp, rows, true)
	loadDim(t, comp, rows/1000+1, true)
	raw := New()
	raw.Parallelism = 1
	loadClustered(t, raw, rows, false)
	loadDim(t, raw, rows/1000+1, false)

	skipping := func(q string, skipped int64) func(difftest.Point) (*vector.Table, error) {
		return func(p difftest.Point) (*vector.Table, error) {
			tab, rs, err := queryAt(comp, p, q)
			if err == nil && rs.ScanStats().Skipped() != skipped {
				err = fmt.Errorf("skipped %d segments, want %d", rs.ScanStats().Skipped(), skipped)
			}
			return tab, err
		}
	}
	for _, c := range joinPruningQueries {
		got := difftest.Matrix(t, c.q, 64<<10, skipping(c.q, c.skipped))
		if d := difftest.Diff(got, mustQuery(t, raw, c.q)); d != "" {
			t.Fatalf("%s: join over pruned scans differs from raw: %s", c.q, d)
		}
		if d := difftest.Diff(difftest.Matrix(t, c.twin, 64<<10, skipping(c.twin, 0)), got); d != "" {
			t.Fatalf("%s: differs from its twin: %s", c.q, d)
		}
		var shown int64
		text := planText(t, comp, "EXPLAIN ANALYZE "+c.q)
		for _, m := range regexp.MustCompile(`Scan .* skipped=(\d+)`).FindAllStringSubmatch(text, -1) {
			n, _ := strconv.ParseInt(m[1], 10, 64)
			shown += n
		}
		if shown != c.skipped {
			t.Fatalf("%s: EXPLAIN ANALYZE shows %d segments skipped, want %d:\n%s", c.q, shown, c.skipped, text)
		}
	}
}

// Pruning must not fire for predicates zone maps cannot decide, and
// must keep the mutable tail segment.
func TestPruningKeepsTailAndUndecidable(t *testing.T) {
	comp := New()
	loadClustered(t, comp, storage.SegmentRows+10, true) // 1 sealed + tail
	// The tail holds ids SegmentRows..SegmentRows+9.
	tab, rs, err := queryAt(comp, difftest.Point{Planner: true}, fmt.Sprintf("SELECT count(*) AS n FROM e WHERE id >= %d", storage.SegmentRows))
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.Cols[0].Get(0).Int64(); n != 10 {
		t.Fatalf("tail rows lost: count = %d", n)
	}
	if rs.ScanStats().Skipped() != 1 {
		t.Fatalf("skipped = %d, want the sealed segment only", rs.ScanStats().Skipped())
	}
}

// Persisted compressed tables reload with zone maps intact: pruning
// keeps working after a save/load cycle without eager rehydration.
func TestPruningSurvivesPersistence(t *testing.T) {
	dir := t.TempDir()
	db := New()
	loadClustered(t, db, storage.SegmentRows*3, true)
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	db2 := New()
	if err := db2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	tab, rs, err := queryAt(db2, difftest.Point{Planner: true}, "SELECT count(*) AS n FROM e WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.Cols[0].Get(0).Int64(); n != 100 {
		t.Fatalf("count = %d", n)
	}
	if rs.ScanStats().Skipped() != 2 {
		t.Fatalf("skipped = %d after reload, want 2", rs.ScanStats().Skipped())
	}
}
