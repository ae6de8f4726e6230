// Durability: the write-ahead log and checkpoint/recovery protocol.
//
// Every write takes one path, applyRecord, and replay takes the same
// one. A statement evaluates what it writes (VALUES, a SELECT, the
// rows a WHERE matches) into one WAL record; then, under the
// statement's locks, the record is checked against the current state
// for every condition its mutation can fail on, logged, and applied,
// which cannot fail once the check passed; the statement commits
// (waits until the record is durable, group commit, see internal/wal)
// outside the table lock and is acknowledged after. A write the check
// refuses returns its error and is never logged, so the log holds only
// records that applied. Replay runs the same check and apply on each
// record; one that fails its check fails the open as corruption.
//
// A checkpoint quiesces writers, saves every table under the WAL
// directory, writes a manifest naming the checkpoint's last LSN, and
// seals the log down to a single checkpoint record. Recovery loads the
// manifest's tables and replays only records past its LSN, so replay
// is idempotent and a crash at any point — mid-append,
// mid-checkpoint, mid-manifest rename — recovers exactly the
// acknowledged prefix.
package engine

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vexdb/internal/catalog"
	"vexdb/internal/storage"
	"vexdb/internal/wal"
)

const manifestName = "MANIFEST"

// EnableWAL turns on write-ahead logging in dir, first recovering any
// state a previous incarnation left there: checkpoint tables named by
// the manifest, then the log's valid suffix. It must be called before
// the database accepts writes.
func (db *DB) EnableWAL(dir string, mode wal.SyncMode) error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if db.wal != nil {
		return fmt.Errorf("engine: WAL already enabled in %s", db.walDir)
	}
	cpLSN, err := db.loadCheckpoint(dir)
	if err != nil {
		return err
	}
	l, err := wal.Open(dir, mode)
	if err != nil {
		return err
	}
	l.EnsureNextLSN(cpLSN)
	// db.wal is still nil, so applyRecord logs nothing again.
	if err := l.Replay(func(r *wal.Record) error {
		if r.LSN <= cpLSN {
			return nil // already captured by the checkpoint's tables
		}
		if _, err := db.applyRecord(r, db.Parallelism); err != nil {
			return fmt.Errorf("record at LSN %d: %w: %w", r.LSN, wal.ErrCorrupt, err)
		}
		return nil
	}); err != nil {
		l.Close()
		return fmt.Errorf("engine: WAL replay: %w", err)
	}
	db.wal = l
	db.walDir = dir
	return nil
}

// loadCheckpoint reads dir's manifest (when present) and attaches the
// checkpoint's tables, returning the checkpoint LSN (0 when none).
func (db *DB) loadCheckpoint(dir string) (uint64, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var lsn uint64
	var ckptDir string
	sc := bufio.NewScanner(f)
	for line := 0; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		switch {
		case line == 0:
			if text != "VEXCKPT1" {
				return 0, fmt.Errorf("engine: manifest magic %q", text)
			}
		case strings.HasPrefix(text, "lsn "):
			lsn, err = strconv.ParseUint(text[4:], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("engine: manifest lsn: %w", err)
			}
		case strings.HasPrefix(text, "dir "):
			ckptDir = text[4:]
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if ckptDir == "" {
		return 0, fmt.Errorf("engine: manifest names no checkpoint directory")
	}
	// The checkpoint is authoritative: a same-named table attached
	// earlier (directory load) is replaced by its durable version.
	ckptPath := filepath.Join(dir, ckptDir)
	entries, err := os.ReadDir(ckptPath)
	if err != nil {
		return 0, fmt.Errorf("engine: checkpoint %s: %w", ckptDir, err)
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".vxtb")
		if name != e.Name() && db.cat.HasTable(name) {
			if err := db.cat.DropTable(name); err != nil {
				return 0, err
			}
		}
	}
	if err := db.LoadDir(ckptPath); err != nil {
		return 0, fmt.Errorf("engine: load checkpoint %s: %w", ckptDir, err)
	}
	return lsn, nil
}

// applyRecord is the only place a record changes the catalog or a
// column store, for a live statement and for replay alike. It checks
// rec against the current state (check); a refused record returns the
// mutation's error and is not logged. Otherwise it logs rec — with the
// WAL on and outside replay — and applies it, sealing the segments its
// rows fill up to width at a time (the writing statement's workers),
// and returns its LSN for the caller to commit. Callers hold ddlMu (exclusively for CREATE and
// DROP) and, for a record naming an existing table, that table's write
// lock, so per-table apply order matches LSN order and the state the
// check saw is the state the apply meets.
func (db *DB) applyRecord(rec *wal.Record, width int) (uint64, error) {
	apply, err := db.check(rec, width)
	if err != nil {
		return 0, err
	}
	var lsn uint64
	if db.wal != nil {
		if lsn, err = db.wal.Append(rec); err != nil {
			return 0, fmt.Errorf("engine: wal append: %w", err)
		}
	}
	return lsn, apply()
}

// check tests rec against the current state for every condition its
// mutation can fail on — a name taken or absent, a schema with no,
// duplicate or invalid columns, rows that do not conform to the
// table, ranges or replacement rows that do not match it — and
// returns the mutation, which then cannot fail. Rows are conformed to
// the table's types here, so the record logs the rows the table holds.
func (db *DB) check(rec *wal.Record, width int) (func() error, error) {
	switch rec.Type {
	case wal.RecCheckpoint:
		return func() error { return nil }, nil
	case wal.RecCreate:
		schema := make(catalog.Schema, len(rec.Cols))
		for i, c := range rec.Cols {
			schema[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		err := db.cat.CheckCreate(rec.Table, schema)
		if err == nil && rec.Chunk != nil {
			rec.Chunk, err = storage.Conform(schema.Types(), rec.Chunk)
		}
		if err != nil {
			return nil, err
		}
		return func() error {
			t, err := db.cat.CreateTable(rec.Table, schema)
			if err != nil || rec.Chunk == nil {
				return err
			}
			return t.Data.AppendChunkWidth(rec.Chunk, width)
		}, nil
	}
	t, err := db.cat.Table(rec.Table)
	if err != nil {
		return nil, err
	}
	switch rec.Type {
	case wal.RecDrop:
		return func() error { return db.cat.DropTable(rec.Table) }, nil
	case wal.RecTruncate:
		return func() error { t.Data.Truncate(); return nil }, nil
	case wal.RecInsert:
		if rec.Chunk, err = storage.Conform(t.Data.Types(), rec.Chunk); err != nil {
			return nil, err
		}
		return func() error { return t.Data.AppendChunkWidth(rec.Chunk, width) }, nil
	case wal.RecRewrite:
		if rec.Chunk, err = t.Data.CheckRewrite(rec.Ranges, rec.Chunk); err != nil {
			return nil, err
		}
		return func() error { return t.Data.Rewrite(rec.Ranges, rec.Chunk, width) }, nil
	}
	return nil, fmt.Errorf("engine: record type %s", rec.Type)
}

// walCommit blocks until lsn is durable. Callers run it after
// releasing their locks so concurrent committers batch into one fsync.
func (db *DB) walCommit(lsn uint64) error {
	if db.wal == nil || lsn == 0 {
		return nil
	}
	if err := db.wal.Commit(lsn); err != nil {
		return fmt.Errorf("engine: wal commit: %w", err)
	}
	return nil
}

// Checkpoint persists the current state and seals the log: writers are
// quiesced, every table is saved under a versioned directory inside
// the WAL directory, the manifest is atomically pointed at it, and the
// log is truncated to a single checkpoint record. A crash anywhere in
// the sequence recovers correctly — the manifest only advances after
// its tables are fully on disk, and the log only shrinks after the
// manifest advanced.
func (db *DB) Checkpoint() error {
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if db.wal == nil {
		return fmt.Errorf("engine: checkpoint without WAL")
	}
	if err := db.wal.Sync(); err != nil {
		return err
	}
	cpLSN := db.wal.LastLSN()
	ckptDir := fmt.Sprintf("ckpt-%016d", cpLSN)
	if err := db.SaveDir(filepath.Join(db.walDir, ckptDir)); err != nil {
		return err
	}
	// The checkpoint's directory entries, and its own entry in the WAL
	// directory, are durable before the manifest names it.
	for _, d := range []string{filepath.Join(db.walDir, ckptDir), db.walDir} {
		if err := storage.SyncDir(d); err != nil {
			return err
		}
	}
	if err := writeManifest(db.walDir, cpLSN, ckptDir); err != nil {
		return err
	}
	if err := db.wal.Reset(cpLSN); err != nil {
		return err
	}
	// Older checkpoints are now unreachable; reclaim them. Failure is
	// harmless (they are skipped by the manifest), so best effort.
	entries, err := os.ReadDir(db.walDir)
	if err == nil {
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "ckpt-") && e.Name() != ckptDir {
				os.RemoveAll(filepath.Join(db.walDir, e.Name()))
			}
		}
	}
	return nil
}

// writeManifest atomically replaces dir's manifest
// (storage.WriteFileAtomic) so recovery sees either the old or the new
// checkpoint, never a torn one.
func writeManifest(dir string, lsn uint64, ckptDir string) error {
	return storage.WriteFileAtomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "VEXCKPT1\nlsn %d\ndir %s\n", lsn, ckptDir)
		return err
	})
}

// WALGroupStats reports the WAL's commit fsyncs and the records they
// made durable (both 0 with the WAL off); commits/syncs is the
// effective group-commit batch size.
func (db *DB) WALGroupStats() (syncs, commits int64) {
	if db.wal == nil {
		return 0, 0
	}
	return db.wal.GroupStats()
}

// WALSize returns the log's size in bytes (0 with the WAL off).
func (db *DB) WALSize() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}

// Close flushes and closes the WAL (when enabled). Writes issued after
// Close fail; in-flight statements finish first because Close takes
// the statement lock exclusively. It does not checkpoint — the sealed
// log replays on next open — call Checkpoint first to start clean.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}
