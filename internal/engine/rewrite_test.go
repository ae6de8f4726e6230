package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vexdb/internal/catalog"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
	"vexdb/internal/wal"
)

// rewriteTable creates t(id BIGINT, n BIGINT, s VARCHAR) with ids
// 0..rows-1 in a durable database; s is "7" except where bad says.
func rewriteTable(t *testing.T, rows int, bad func(id int) bool) (*DB, *catalog.Table) {
	t.Helper()
	db := New()
	if err := db.EnableWAL(t.TempDir(), wal.SyncGroup); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ids, ns, ss := make([]int64, rows), make([]int64, rows), make([]string, rows)
	for i := range ids {
		ids[i], ss[i] = int64(i), "7"
		if bad(i) {
			ss[i] = "x"
		}
	}
	data, err := vector.NewTable([]string{"id", "n", "s"}, []*vector.Vector{vector.FromInt64s(ids), vector.FromInt64s(ns), vector.FromStrings(ss)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFrom("t", data); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func columnsOf(t *testing.T, tab *catalog.Table) []*vector.Vector {
	t.Helper()
	out := make([]*vector.Vector, len(tab.Schema))
	for c := range out {
		v, err := tab.Data.Column(c)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = v
	}
	return out
}

// An UPDATE whose SET cast fails in the second segment it touches has
// already rewritten rows of the first in its head; none of it may
// reach the table, its statistics or the log.
func TestFailedUpdateLeavesTableStatsAndLog(t *testing.T) {
	rows := 3 * storage.SegmentRows
	db, tab := rewriteTable(t, rows, func(id int) bool { return id >= 3000 })
	before, stats, logSize := columnsOf(t, tab), tab.Data.Stats(), db.WALSize()
	if _, err := db.Exec("UPDATE t SET n = s WHERE id >= 1000 AND id < 3500"); err == nil {
		t.Fatal("UPDATE casting 'x' to BIGINT succeeded")
	}
	if !reflect.DeepEqual(columnsOf(t, tab), before) {
		t.Fatal("a failed UPDATE changed the table")
	}
	if !reflect.DeepEqual(tab.Data.Stats(), stats) {
		t.Fatalf("a failed UPDATE changed the statistics:\n%+v\n%+v", tab.Data.Stats(), stats)
	}
	if db.WALSize() != logSize {
		t.Fatalf("a failed UPDATE logged %d bytes", db.WALSize()-logSize)
	}
	// The rows that cast cleanly update, in place.
	res := mustExec(t, db, "UPDATE t SET n = s WHERE id >= 1000 AND id < 3000")
	if res.RowsAffected != 2000 {
		t.Fatalf("updated %d rows, want 2000", res.RowsAffected)
	}
	ids, ns := columnsOf(t, tab)[0].Int64s(), columnsOf(t, tab)[1].Int64s()
	for i := range ids {
		want := int64(0)
		if i >= 1000 && i < 3000 {
			want = 7
		}
		if ids[i] != int64(i) || ns[i] != want {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", i, ids[i], ns[i], i, want)
		}
	}
}

// After DELETEs of id ranges at the head, middle and tail, the table's
// statistics — bounds, row coverage, distinct counts — describe the
// live rows only.
func TestDeleteKeepsStatisticsExact(t *testing.T) {
	rows := 4*storage.SegmentRows + 500
	db, tab := rewriteTable(t, rows, func(int) bool { return false })
	for _, q := range []string{
		"DELETE FROM t WHERE id < 2100",
		fmt.Sprintf("DELETE FROM t WHERE id >= %d", rows-600),
		"DELETE FROM t WHERE id >= 5000 AND id < 6000",
	} {
		mustExec(t, db, q)
	}
	live := rows - 2100 - 600 - 1000
	st := tab.Data.Stats()
	if st.Rows != live {
		t.Fatalf("%d rows, want %d", st.Rows, live)
	}
	id := st.Columns[0]
	if id.StatsRows != live || id.SketchRows != live || !id.HasMinMax {
		t.Fatalf("id statistics cover %d/%d of %d rows", id.StatsRows, id.SketchRows, live)
	}
	if id.Min.Int64() != 2100 || id.Max.Int64() != int64(rows-601) {
		t.Fatalf("id bounds [%v, %v], want [2100, %d]", id.Min, id.Max, rows-601)
	}
	if d := float64(id.Distinct) / float64(live); d < 0.8 || d > 1.2 {
		t.Fatalf("id distinct estimate %d for %d live rows", id.Distinct, live)
	}
	// No segment outlives its rows.
	for i, n := range tab.Data.SegmentRowCounts() {
		if n == 0 {
			t.Fatalf("segment %d is empty", i)
		}
	}
}

// A log written by a build before rewrite records logs DELETE and
// UPDATE as whole-table replace records (type 5). Those are no longer
// replayed: such a log fails to open with ErrCorrupt naming the type,
// rather than recovering something else.
func TestRecoverReplaceRecordFromOlderLog(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(&wal.Record{Type: wal.RecCreate, Table: "t", Cols: []wal.ColumnDef{{Name: "x", Type: vector.Int64}},
		Chunk: vector.NewChunk(vector.FromInt64s([]int64{1, 2, 3, 4, 5}))})
	if err == nil {
		err = l.Commit(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The replace record as older builds framed it: LSN, type, table,
	// then its rows.
	payload := binary.LittleEndian.AppendUint64(nil, lsn+1)
	payload = append(payload, byte(wal.RecReplace), 1, 0, 't')
	payload, err = storage.AppendChunk(payload, []*vector.Vector{vector.FromInt64s([]int64{9, 8})})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(filepath.Join(dir, wal.LogName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db := New()
	err = db.EnableWAL(dir, wal.SyncGroup)
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "type 5 (replace)") {
		t.Fatalf("opening a log with a replace record: %v, want ErrCorrupt naming type 5", err)
	}
	db.Close()
}
