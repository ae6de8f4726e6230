package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

func intChunk(vals ...int64) *vector.Chunk {
	return vector.NewChunk(vector.FromInt64s(vals))
}

func mustAppendCommit(t *testing.T, l *Log, rec *Record) uint64 {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	return lsn
}

func replayAll(t *testing.T, dir string) []*Record {
	t.Helper()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var recs []*Record
	if err := l.Replay(func(r *Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRoundTripAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	mustAppendCommit(t, l, &Record{Type: RecCreate, Table: "t", Cols: []ColumnDef{
		{Name: "id", Type: vector.Int64}, {Name: "name", Type: vector.String},
	}})
	mustAppendCommit(t, l, &Record{Type: RecInsert, Table: "t", Chunk: vector.NewChunk(
		vector.FromInt64s([]int64{1, 2, 3}),
		vector.FromStrings([]string{"a", "b", "c"}),
	)})
	mustAppendCommit(t, l, &Record{Type: RecTruncate, Table: "t"})
	mustAppendCommit(t, l, &Record{Type: RecDrop, Table: "t"})
	// CTAS: create carrying rows.
	mustAppendCommit(t, l, &Record{Type: RecCreate, Table: "u",
		Cols:  []ColumnDef{{Name: "x", Type: vector.Int64}},
		Chunk: intChunk(4, 5)})
	// DELETE and UPDATE: ordinal runs, the second with its rows.
	mustAppendCommit(t, l, &Record{Type: RecRewrite, Table: "u", Ranges: []storage.RowRange{{Start: 0, End: 1}, {Start: 5, End: 9}}})
	mustAppendCommit(t, l, &Record{Type: RecRewrite, Table: "u", Ranges: []storage.RowRange{{Start: 1, End: 3}},
		Chunk: intChunk(6, 7)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := replayAll(t, dir)
	if len(recs) != 7 {
		t.Fatalf("replayed %d records, want 7", len(recs))
	}
	wantTypes := []Type{RecCreate, RecInsert, RecTruncate, RecDrop, RecCreate, RecRewrite, RecRewrite}
	for i, r := range recs {
		if r.Type != wantTypes[i] {
			t.Fatalf("record %d: type %s, want %s", i, r.Type, wantTypes[i])
		}
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: lsn %d, want %d", i, r.LSN, i+1)
		}
	}
	if got := recs[1].Chunk.NumRows(); got != 3 {
		t.Fatalf("insert chunk rows = %d", got)
	}
	if got := recs[1].Chunk.Col(1).Get(2).Str(); got != "c" {
		t.Fatalf("insert string col round trip: %q", got)
	}
	if recs[4].Chunk == nil || recs[4].Chunk.NumRows() != 2 {
		t.Fatal("CTAS chunk lost in round trip")
	}
	if len(recs[0].Cols) != 2 || recs[0].Cols[1].Name != "name" || recs[0].Cols[1].Type != vector.String {
		t.Fatalf("create schema round trip: %+v", recs[0].Cols)
	}
	if del := recs[5]; del.Chunk != nil || len(del.Ranges) != 2 || del.Ranges[1] != (storage.RowRange{Start: 5, End: 9}) {
		t.Fatalf("delete rewrite round trip: %+v, chunk %v", del.Ranges, del.Chunk)
	}
	if upd := recs[6]; len(upd.Ranges) != 1 || upd.Chunk == nil || upd.Chunk.Col(0).Get(1).Int64() != 7 {
		t.Fatalf("update rewrite round trip: %+v", upd.Ranges)
	}
}

// The rewrite decoder rejects ordinal runs a writer never produces —
// unsorted, overlapping, empty or out of range — and a row count that
// disagrees with them, all as ErrCorrupt.
func TestDecodeRejectsBadRewrites(t *testing.T) {
	cases := map[string]*Record{
		"unsorted":    {Ranges: []storage.RowRange{{Start: 10, End: 12}, {Start: 3, End: 4}}},
		"overlapping": {Ranges: []storage.RowRange{{Start: 10, End: 12}, {Start: 11, End: 14}}},
		"empty-run":   {Ranges: []storage.RowRange{{Start: 4, End: 4}}},
		"past-max":    {Ranges: []storage.RowRange{{Start: maxOrdinal, End: maxOrdinal + 1}}},
		"row-count":   {Ranges: []storage.RowRange{{Start: 0, End: 3}}, Chunk: intChunk(1, 2)},
	}
	for name, r := range cases {
		r.Type, r.Table = RecRewrite, "t"
		p, err := encodePayload(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodePayload(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// Torn tails: truncating the file at every possible byte offset must
// yield replay of exactly the frames that fit whole, never an error.
func TestTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	frameEnds := []int64{0}
	for i := 0; i < 5; i++ {
		mustAppendCommit(t, l, &Record{Type: RecInsert, Table: "t", Chunk: intChunk(int64(i))})
		frameEnds = append(frameEnds, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	completeBelow := func(off int64) int {
		n := 0
		for _, end := range frameEnds[1:] {
			if end <= off {
				n++
			}
		}
		return n
	}
	for off := int64(0); off <= int64(len(full)); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		recs := replayAll(t, dir)
		if want := completeBelow(off); len(recs) != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", off, len(recs), want)
		}
		// Open must have truncated to a frame boundary.
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := frameEnds[completeBelow(off)]; st.Size() != want {
			t.Fatalf("cut at %d: file left at %d bytes, want %d", off, st.Size(), want)
		}
	}
}

// A bit flip anywhere in a frame must stop replay at the frame before
// it (CRC) without erroring.
func TestCorruptionStopsAtBadFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < 4; i++ {
		mustAppendCommit(t, l, &Record{Type: RecInsert, Table: "t", Chunk: intChunk(int64(i))})
		ends = append(ends, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside frame 3 (index 2).
	mut := append([]byte(nil), full...)
	mut[ends[1]+frameHeader+4] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past corruption, want 2", len(recs))
	}
}

// Appends after a recovered torn tail must continue the LSN sequence
// and replay cleanly.
func TestAppendAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppendCommit(t, l, &Record{Type: RecInsert, Table: "t", Chunk: intChunk(int64(i))})
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	full, _ := os.ReadFile(path)
	// Tear half of the last frame off.
	if err := os.WriteFile(path, full[:size-5], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastLSN(); got != 2 {
		t.Fatalf("recovered LastLSN = %d, want 2", got)
	}
	lsn := mustAppendCommit(t, l2, &Record{Type: RecInsert, Table: "t", Chunk: intChunk(99)})
	if lsn != 3 {
		t.Fatalf("post-recovery lsn = %d, want 3", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 3 || recs[2].Chunk.Col(0).Get(0).Int64() != 99 {
		t.Fatalf("replay after recovery: %d records", len(recs))
	}
}

func TestResetSealsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 10; i++ {
		last = mustAppendCommit(t, l, &Record{Type: RecInsert, Table: "t", Chunk: intChunk(int64(i))})
	}
	before := l.Size()
	if err := l.Reset(last); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("reset did not shrink the log: %d -> %d", before, l.Size())
	}
	// Post-reset appends continue past the checkpoint LSN.
	lsn := mustAppendCommit(t, l, &Record{Type: RecInsert, Table: "t", Chunk: intChunk(42)})
	if lsn != last+1 {
		t.Fatalf("post-reset lsn = %d, want %d", lsn, last+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want checkpoint+insert", len(recs))
	}
	if recs[0].Type != RecCheckpoint || recs[0].LSN != last {
		t.Fatalf("head record = %s lsn %d, want checkpoint lsn %d", recs[0].Type, recs[0].LSN, last)
	}
	if recs[1].Type != RecInsert || recs[1].LSN != last+1 {
		t.Fatalf("tail record = %s lsn %d", recs[1].Type, recs[1].LSN)
	}
}

// Group commit under contention: all records from all goroutines must
// be durable, in strictly increasing LSN order, with no gaps. The fsync
// count is the group-commit gate: 16 committers share fsyncs under
// SyncGroup (at most one per two records) and SyncNone pays none.
func TestGroupCommitConcurrent(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncNone} {
		mode := mode
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, mode)
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 16, 50
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						lsn, err := l.Append(&Record{Type: RecInsert, Table: "t",
							Chunk: intChunk(int64(w*perWriter + i))})
						if err != nil {
							errs <- err
							return
						}
						if err := l.Commit(lsn); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			syncs, commits := l.GroupStats()
			t.Logf("%d fsyncs for %d commits", syncs, commits)
			if commits != writers*perWriter {
				t.Fatalf("%d records committed, want %d", commits, writers*perWriter)
			}
			switch mode {
			case SyncGroup:
				if syncs > commits/2 {
					t.Fatalf("%d fsyncs for %d commits: group commit did not batch", syncs, commits)
				}
			case SyncNone:
				if syncs != 0 {
					t.Fatalf("%d commit fsyncs, want none", syncs)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs := replayAll(t, dir)
			if len(recs) != writers*perWriter {
				t.Fatalf("replayed %d, want %d", len(recs), writers*perWriter)
			}
			seen := make(map[int64]bool)
			for i, r := range recs {
				if r.LSN != uint64(i+1) {
					t.Fatalf("record %d has lsn %d", i, r.LSN)
				}
				v := r.Chunk.Col(0).Get(0).Int64()
				if seen[v] {
					t.Fatalf("value %d duplicated", v)
				}
				seen[v] = true
			}
		})
	}
}

func TestEnsureNextLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.EnsureNextLSN(41)
	lsn, err := l.Append(&Record{Type: RecInsert, Table: "t", Chunk: intChunk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("lsn = %d, want 42", lsn)
	}
}

func TestParseSyncMode(t *testing.T) {
	for s, want := range map[string]SyncMode{
		"": SyncGroup, "group": SyncGroup, "none": SyncNone, "async": SyncNone,
	} {
		got, err := ParseSyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"bogus", "each", "statement"} {
		if _, err := ParseSyncMode(s); err == nil {
			t.Fatalf("mode %q accepted", s)
		}
	}
}
