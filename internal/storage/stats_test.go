package storage

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vexdb/internal/vector"
)

// TestHLLAccuracy pins the sketch error to well inside the planner's
// needs: p=8 gives ~6.5% standard error, so 3 sigma ≈ 20%.
func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 100000} {
		h := NewHLL()
		for i := 0; i < n; i++ {
			h.AddHash(hllMix(uint64(i)))
		}
		est := h.Estimate()
		lo, hi := int64(float64(n)*0.8), int64(float64(n)*1.2)
		if est < lo || est > hi {
			t.Errorf("n=%d: estimate %d outside [%d,%d]", n, est, lo, hi)
		}
	}
	// Duplicates must not inflate the estimate.
	h := NewHLL()
	for i := 0; i < 100000; i++ {
		h.AddHash(hllMix(uint64(i % 50)))
	}
	if est := h.Estimate(); est < 40 || est > 60 {
		t.Errorf("50 distinct over 100k rows: estimate %d", est)
	}
}

func TestHLLMergeDisjointSets(t *testing.T) {
	a, b := NewHLL(), NewHLL()
	for i := 0; i < 5000; i++ {
		a.AddHash(hllMix(uint64(i)))
		b.AddHash(hllMix(uint64(i + 5000)))
	}
	a.Merge(b)
	if est := a.Estimate(); est < 8000 || est > 12000 {
		t.Errorf("merged estimate %d, want ~10000", est)
	}
	// Merging overlapping sketches must not double count.
	c, d := NewHLL(), NewHLL()
	for i := 0; i < 5000; i++ {
		c.AddHash(hllMix(uint64(i)))
		d.AddHash(hllMix(uint64(i)))
	}
	c.Merge(d)
	if est := c.Estimate(); est < 4000 || est > 6000 {
		t.Errorf("self-merge estimate %d, want ~5000", est)
	}
	c.Merge(nil) // nil merge is a no-op
	if est := c.Estimate(); est < 4000 || est > 6000 {
		t.Errorf("nil-merge estimate %d, want ~5000", est)
	}
}

// eventsStore builds a store with nseg full segments: a skewed int64
// key with ndv distinct values, a float val (every 7th NULL, every
// 13th NaN), and a low-cardinality string tag.
func eventsStore(t *testing.T, nseg, ndv int) *ColumnStore {
	t.Helper()
	s := NewColumnStore([]vector.Type{vector.Int64, vector.Float64, vector.String})
	n := SegmentRows * nseg
	keys := vector.New(vector.Int64, n)
	vals := vector.New(vector.Float64, n)
	tags := vector.New(vector.String, n)
	for i := 0; i < n; i++ {
		keys.AppendValue(vector.NewInt64(int64(i % ndv)))
		switch {
		case i%7 == 0:
			vals.AppendValue(vector.Null())
		case i%13 == 0:
			vals.AppendValue(vector.NewFloat64(math.NaN()))
		default:
			vals.AppendValue(vector.NewFloat64(float64(i % 500)))
		}
		tags.AppendValue(vector.NewString(fmt.Sprintf("tag-%d", i%30)))
	}
	if err := s.AppendChunk(vector.NewChunk(keys, vals, tags)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestColumnStatisticsRollup(t *testing.T) {
	const nseg, ndv = 4, 300
	s := eventsStore(t, nseg, ndv)
	cs := s.ColumnStatistics()
	if len(cs) != 3 {
		t.Fatalf("got %d column stats", len(cs))
	}
	n := SegmentRows * nseg

	key := cs[0]
	if key.StatsRows != n || key.SketchRows != n {
		t.Fatalf("key coverage: stats=%d sketch=%d want %d", key.StatsRows, key.SketchRows, n)
	}
	if key.NullCount != 0 {
		t.Fatalf("key nulls = %d", key.NullCount)
	}
	if key.Distinct < int64(float64(ndv)*0.8) || key.Distinct > int64(float64(ndv)*1.2) {
		t.Fatalf("key distinct = %d, want ~%d", key.Distinct, ndv)
	}
	if !key.HasMinMax || key.Min.Int64() != 0 || key.Max.Int64() != int64(ndv-1) {
		t.Fatalf("key bounds = %v..%v (has=%v)", key.Min, key.Max, key.HasMinMax)
	}

	val := cs[1]
	wantNulls := 0
	for i := 0; i < n; i++ {
		if i%7 == 0 {
			wantNulls++
		}
	}
	if val.NullCount != wantNulls {
		t.Fatalf("val nulls = %d, want %d", val.NullCount, wantNulls)
	}
	// NaNs are excluded from bounds but counted by the sketch.
	if !val.HasMinMax || val.Min.Float64() != 0 || val.Max.Float64() != 499 {
		t.Fatalf("val bounds = %v..%v", val.Min, val.Max)
	}

	tag := cs[2]
	if tag.Distinct < 25 || tag.Distinct > 35 {
		t.Fatalf("tag distinct = %d, want ~30", tag.Distinct)
	}
	if tag.Min.Str() != "tag-0" || tag.Max.Str() != "tag-9" {
		t.Fatalf("tag bounds = %v..%v", tag.Min, tag.Max)
	}
}

// The mutable tail contributes on-the-fly statistics, so coverage
// reaches the full table row count (freshly loaded small tables no
// longer fall back to sqrt(rows) planner defaults) with bounds and
// NDV spanning sealed segments and tail alike.
func TestColumnStatisticsPartialCoverage(t *testing.T) {
	s := NewColumnStore([]vector.Type{vector.Int64})
	n := SegmentRows + 100
	v := vector.New(vector.Int64, n)
	for i := 0; i < n; i++ {
		v.AppendValue(vector.NewInt64(int64(i)))
	}
	if err := s.AppendChunk(vector.NewChunk(v)); err != nil {
		t.Fatal(err)
	}
	cs := s.ColumnStatistics()
	if cs[0].StatsRows != n {
		t.Fatalf("StatsRows = %d, want %d (tail covered)", cs[0].StatsRows, n)
	}
	if cs[0].SketchRows != n {
		t.Fatalf("SketchRows = %d, want %d", cs[0].SketchRows, n)
	}
	if !cs[0].HasMinMax || cs[0].Min.Int64() != 0 || cs[0].Max.Int64() != int64(n-1) {
		t.Fatalf("bounds = %v..%v, want 0..%d", cs[0].Min, cs[0].Max, n-1)
	}
	// All values distinct: the merged HLL estimate must land near n.
	if cs[0].Distinct < int64(n)*9/10 || cs[0].Distinct > int64(n)*11/10 {
		t.Fatalf("Distinct = %d, want ~%d", cs[0].Distinct, n)
	}
	counts := s.SegmentRowCounts()
	if len(counts) != 2 || counts[0] != SegmentRows || counts[1] != 100 {
		t.Fatalf("SegmentRowCounts = %v", counts)
	}
	// Compression off: sealed segments carry no statistics either.
	s2 := NewColumnStore([]vector.Type{vector.Int64})
	s2.SetCompression(false)
	if err := s2.AppendChunk(vector.NewChunk(v)); err != nil {
		t.Fatal(err)
	}
	cs2 := s2.ColumnStatistics()
	if cs2[0].StatsRows != 0 || cs2[0].Distinct != 0 {
		t.Fatalf("compression off: StatsRows=%d Distinct=%d, want 0/0", cs2[0].StatsRows, cs2[0].Distinct)
	}
}

// Sketches must survive the disk round trip (version 3).
func TestSketchPersistenceV3(t *testing.T) {
	const nseg, ndv = 3, 200
	s := eventsStore(t, nseg, ndv)
	want := s.ColumnStatistics()

	var buf bytes.Buffer
	if err := WriteTable(&buf, []string{"key", "val", "tag"}, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes()[:8], []byte("VXTB0003")) {
		t.Fatalf("magic = %q", buf.Bytes()[:8])
	}
	_, got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gs := got.ColumnStatistics()
	for c := range want {
		if gs[c].Distinct != want[c].Distinct {
			t.Errorf("col %d: loaded distinct %d != sealed %d", c, gs[c].Distinct, want[c].Distinct)
		}
		if gs[c].NullCount != want[c].NullCount || gs[c].SketchRows != want[c].SketchRows {
			t.Errorf("col %d: nulls/sketchrows changed across round trip", c)
		}
	}
}

// stripSketches drops every sealed segment's sketch, as a writer
// without sketches would have left them.
func stripSketches(s *ColumnStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-publish so the stats rollup cached on the old version is
	// dropped along with the sketches.
	old := s.cur.Load()
	for _, seg := range old.segs {
		for _, sc := range seg.sealed {
			sc.Sketch = nil
		}
	}
	s.cur.Store(&tableVersion{segs: old.segs, rows: old.rows})
}
