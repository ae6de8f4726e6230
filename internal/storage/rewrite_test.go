package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"vexdb/internal/vector"
)

// rewriteModel is the reference a rewritten store must equal: the rows
// as plain slices, edited by ordinal.
type rewriteModel struct {
	ids   []int64
	notes []string
}

func (m *rewriteModel) apply(ranges []RowRange, rows *vector.Chunk) {
	var ids []int64
	var notes []string
	k, ri := 0, 0
	for i := range m.ids {
		for ri < len(ranges) && i >= ranges[ri].End {
			ri++
		}
		if ri < len(ranges) && i >= ranges[ri].Start {
			if rows == nil {
				continue
			}
			ids = append(ids, rows.Col(0).Int64s()[k])
			notes = append(notes, rows.Col(1).Strings()[k])
			k++
			continue
		}
		ids = append(ids, m.ids[i])
		notes = append(notes, m.notes[i])
	}
	m.ids, m.notes = ids, notes
}

func (m *rewriteModel) check(t *testing.T, what string, s *ColumnStore) {
	t.Helper()
	if s.NumRows() != len(m.ids) {
		t.Fatalf("%s: %d rows, model has %d", what, s.NumRows(), len(m.ids))
	}
	ids, notes := mustColumn(t, s, 0), mustColumn(t, s, 1)
	for i := range m.ids {
		if ids.Int64s()[i] != m.ids[i] || notes.Strings()[i] != m.notes[i] {
			t.Fatalf("%s: row %d is (%d, %q), model (%d, %q)", what, i, ids.Int64s()[i], notes.Strings()[i], m.ids[i], m.notes[i])
		}
	}
	// Every sealed segment carries statistics of the rows it holds now.
	snap := s.Snapshot()
	for i := 0; i < snap.NumSegments(); i++ {
		if !snap.SegmentIsSealed(i) {
			continue
		}
		ch := mustSegment(t, s, i, []int{0})
		z := snap.Zones(i)[0]
		if z.Rows != ch.NumRows() || !z.Min.Equal(vector.NewInt64(minInt(ch.Col(0).Int64s()))) {
			t.Fatalf("%s: segment %d zone %+v over %d rows", what, i, z, ch.NumRows())
		}
	}
}

func minInt(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

// randomRanges picks up to four sorted, disjoint runs, some crossing
// segment boundaries.
func randomRanges(rng *rand.Rand, rows int) []RowRange {
	var out []RowRange
	at := 0
	for len(out) < 4 && at < rows {
		start := at + rng.Intn(rows-at)
		end := min(rows, start+1+rng.Intn(SegmentRows+SegmentRows/2))
		out = append(out, RowRange{start, end})
		at = end + 1 + rng.Intn(SegmentRows)
	}
	return out
}

func replacementRows(ranges []RowRange, round int) *vector.Chunk {
	n := rangeRows(ranges)
	ids := make([]int64, n)
	notes := make([]string, n)
	for i := range ids {
		ids[i] = int64(-(round*100000 + i))
		notes[i] = "upd"
	}
	return vector.NewChunk(vector.FromInt64s(ids), vector.FromStrings(notes))
}

// Segment-granular DELETE and UPDATE against the slice model: rows and
// order match after every rewrite, sealed segments are re-sealed with
// fresh zone maps, untouched segments are shared by pointer, and a
// store reloaded from a saved image — whose tail was sealed early, so
// its segment boundaries differ — applies the same global ordinals to
// the same rows.
func TestRewriteMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewColumnStore([]vector.Type{vector.Int64, vector.String})
	m := &rewriteModel{}
	n := SegmentRows*6 + 300
	for i := 0; i < n; i++ {
		m.ids = append(m.ids, int64(i))
		m.notes = append(m.notes, "row")
	}
	if err := s.AppendChunk(vector.NewChunk(vector.FromInt64s(append([]int64(nil), m.ids...)),
		vector.FromStrings(append([]string(nil), m.notes...)))); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40 && s.NumRows() > 0; round++ {
		var buf bytes.Buffer
		if err := WriteTable(&buf, []string{"id", "note"}, s); err != nil {
			t.Fatal(err)
		}
		_, loaded, err := ReadTable(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ranges := randomRanges(rng, s.NumRows())
		var rows *vector.Chunk
		if round%2 == 1 {
			rows = replacementRows(ranges, round)
		}
		before := s.Snapshot()
		if err := s.Rewrite(ranges, rows, 0); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Rewrite(ranges, rows, 0); err != nil {
			t.Fatal(err)
		}
		m.apply(ranges, rows)
		m.check(t, "live", s)
		m.check(t, "reloaded", loaded)

		// A segment no range touches is the same segment.
		after := s.Snapshot()
		kept := map[*segment]bool{}
		for _, g := range after.v.segs {
			kept[g] = true
		}
		start := 0
		for _, g := range before.v.segs {
			end := start + g.rows
			touched := false
			for _, r := range ranges {
				touched = touched || (r.Start < end && r.End > start)
			}
			if kept[g] == touched {
				t.Fatalf("round %d: segment [%d, %d) touched=%v but shared=%v", round, start, end, touched, kept[g])
			}
			start = end
		}
		// The store keeps appending after a rewrite.
		if err := s.AppendRow([]vector.Value{vector.NewInt64(int64(1000000 + round)), vector.NewString("tail")}); err != nil {
			t.Fatal(err)
		}
		m.ids = append(m.ids, int64(1000000+round))
		m.notes = append(m.notes, "tail")
		m.check(t, "appended", s)
	}
}

func TestRewriteRejectsBadRanges(t *testing.T) {
	s := testStore(t, 100)
	for _, c := range []struct {
		name   string
		ranges []RowRange
		rows   *vector.Chunk
	}{
		{"past-end", []RowRange{{90, 101}}, nil},
		{"unsorted", []RowRange{{50, 60}, {10, 20}}, nil},
		{"overlapping", []RowRange{{10, 20}, {15, 30}}, nil},
		{"empty", []RowRange{{10, 10}}, nil},
		{"negative", []RowRange{{-1, 3}}, nil},
		{"row-count", []RowRange{{0, 2}}, vector.NewChunk(mustColumn(t, s, 0).Slice(0, 3),
			mustColumn(t, s, 1).Slice(0, 3), mustColumn(t, s, 2).Slice(0, 3))},
	} {
		before := s.Snapshot()
		if err := s.Rewrite(c.ranges, c.rows, 0); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if s.Snapshot().v != before.v {
			t.Errorf("%s: published a version", c.name)
		}
	}
}
