// Durability: the write-ahead log and checkpoint/recovery protocol.
//
// Every write statement appends one WAL record before it applies to
// the in-memory column stores and is acknowledged only after the
// record is durable (group commit, see internal/wal). A checkpoint
// quiesces writers, saves every table under the WAL directory, writes
// a manifest naming the checkpoint's last LSN, and seals the log down
// to a single checkpoint record. Recovery loads the manifest's tables
// and replays only records past its LSN, so replay is idempotent and
// a crash at any point — mid-append, mid-checkpoint, mid-manifest
// rename — recovers exactly the acknowledged prefix.
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
	if err := l.Replay(func(r *wal.Record) error {
		if r.LSN <= cpLSN {
			return nil // already captured by the checkpoint's tables
		}
		return db.applyRecord(r)
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

// applyRecord applies one replayed record to the in-memory state. The
// log is authoritative: a conflicting pre-existing table (e.g. from a
// directory load that overlaps the WAL's history) is replaced.
func (db *DB) applyRecord(r *wal.Record) error {
	switch r.Type {
	case wal.RecCheckpoint:
		return nil
	case wal.RecCreate:
		if db.cat.HasTable(r.Table) {
			if err := db.cat.DropTable(r.Table); err != nil {
				return err
			}
		}
		schema := make(catalog.Schema, len(r.Cols))
		for i, c := range r.Cols {
			schema[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		t, err := db.cat.CreateTable(r.Table, schema)
		if err != nil {
			return err
		}
		if r.Chunk != nil && r.Chunk.NumRows() > 0 {
			return t.Data.AppendChunk(r.Chunk)
		}
		return nil
	case wal.RecDrop:
		return db.cat.DropTable(r.Table)
	case wal.RecTruncate:
		t, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		t.Data.Truncate()
		return nil
	case wal.RecInsert:
		t, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		return t.Data.AppendChunk(r.Chunk)
	case wal.RecRewrite:
		t, err := db.cat.Table(r.Table)
		if err != nil {
			return err
		}
		return t.Data.Rewrite(r.Ranges, r.Chunk)
	}
	return fmt.Errorf("engine: replay record type %s", r.Type)
}

// walAppend logs rec, returning its LSN. With the WAL off it is a
// no-op. Callers hold the target table's write lock (or ddlMu
// exclusively), so per-table apply order matches LSN order.
func (db *DB) walAppend(rec *wal.Record) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	lsn, err := db.wal.Append(rec)
	if err != nil {
		return 0, fmt.Errorf("engine: wal append: %w", err)
	}
	return lsn, nil
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

// walSchema converts a catalog schema to WAL column definitions.
func walSchema(schema catalog.Schema) []wal.ColumnDef {
	cols := make([]wal.ColumnDef, len(schema))
	for i, c := range schema {
		cols[i] = wal.ColumnDef{Name: c.Name, Type: c.Type}
	}
	return cols
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
