// Package spill provides the temp-file substrate for out-of-core
// execution: a per-query Manager that owns a directory of spill files
// with guaranteed cleanup, and a File that writes vector chunks to
// disk and reads them back in the storage package's chunk frame (the
// frame WAL records carry rows in, around the raw column payload the
// table files and the wire protocol use), so spilled data round-trips
// bit-exactly — including float payloads, NULL masks and blobs.
//
// Files are written append-only and read back chunk by chunk with
// positioned reads, in any order and between writes. A Manager
// survives double Close and cleans up every file it created even when
// operators abandoned them mid-write (query cancellation or error):
// Close closes and removes the whole directory.
package spill

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Recorder receives byte-level spill accounting. Implementations must
// be safe for concurrent use; a nil Recorder disables accounting.
type Recorder interface {
	SpillWrote(n int64)
	SpillRead(n int64)
}

// Manager owns one query's spill files. The directory is created
// lazily on the first Create call, so queries that never spill touch
// the filesystem not at all. All methods are safe for concurrent use.
type Manager struct {
	tempDir string
	rec     Recorder

	mu     sync.Mutex
	dir    string // created lazily; "" until first Create
	files  map[*File]struct{}
	closed bool
	seq    int
}

// NewManager returns a manager that places spill files under tempDir
// (os.TempDir() when empty). rec, when non-nil, accumulates bytes
// written and read.
func NewManager(tempDir string, rec Recorder) *Manager {
	return &Manager{tempDir: tempDir, rec: rec, files: map[*File]struct{}{}}
}

// Dir returns the manager's spill directory, or "" when nothing has
// spilled yet.
func (m *Manager) Dir() string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// Create opens a fresh spill file. The file is tracked and removed at
// Manager.Close even if the caller never releases it.
func (m *Manager) Create(label string) (*File, error) {
	if m == nil {
		return nil, fmt.Errorf("spill: no manager (spilling disabled)")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("spill: manager closed")
	}
	if m.dir == "" {
		base := m.tempDir
		if base == "" {
			base = os.TempDir()
		}
		// A configured TempDir need not pre-exist (only the per-query
		// subdirectory is ever removed, never base itself).
		if err := os.MkdirAll(base, 0o700); err != nil {
			return nil, fmt.Errorf("spill: create dir: %w", err)
		}
		dir, err := os.MkdirTemp(base, "vexdb-spill-*")
		if err != nil {
			return nil, fmt.Errorf("spill: create dir: %w", err)
		}
		m.dir = dir
	}
	m.seq++
	path := filepath.Join(m.dir, fmt.Sprintf("%04d-%s.spl", m.seq, label))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: create file: %w", err)
	}
	sf := &File{mgr: m, f: f, path: path, w: bufio.NewWriterSize(f, 1<<16)}
	m.files[sf] = struct{}{}
	return sf, nil
}

// Close removes every outstanding file and the spill directory. It is
// idempotent and returns the first error encountered (cleanup
// continues past errors).
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	var first error
	for f := range m.files {
		if err := f.closeFile(); err != nil && first == nil {
			first = err
		}
	}
	m.files = nil
	if m.dir != "" {
		if err := os.RemoveAll(m.dir); err != nil && first == nil {
			first = err
		}
		m.dir = ""
	}
	return first
}

// release drops a file from the manager's tracking set.
func (m *Manager) release(f *File) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files != nil {
		delete(m.files, f)
	}
}

// File is one append-only spill file holding a sequence of chunks:
// WriteChunkRef appends one and returns where it lies, ReadChunkAt
// reads it back. A File is not safe for concurrent use.
type File struct {
	mgr  *Manager
	f    *os.File
	path string
	w    *bufio.Writer
	buf  []byte // the chunk being written, reused across the file's chunks

	written int64
	dirty   bool // buffered writes not yet flushed
	closed  bool
}

// ChunkRef locates one chunk inside a spill file, so many logical
// streams (grace partitions, sorted runs) can share one physical file
// — file creation is the dominant spill cost on most filesystems —
// and be read back selectively with positioned reads.
type ChunkRef struct {
	Off int64
	Len int64
}

// BytesWritten returns the encoded size of everything written so far.
func (f *File) BytesWritten() int64 { return f.written }

// WriteChunkRef appends the columns as one chunk and returns its
// location for later positioned reads. All columns must have equal
// length; zero-row chunks are dropped (Len 0 in the returned ref).
func (f *File) WriteChunkRef(cols []*vector.Vector) (ChunkRef, error) {
	if f.closed {
		return ChunkRef{}, fmt.Errorf("spill: write on closed file")
	}
	if len(cols) == 0 || cols[0].Len() == 0 {
		return ChunkRef{}, nil
	}
	buf, err := storage.AppendChunk(f.buf[:0], cols)
	if err != nil {
		return ChunkRef{}, fmt.Errorf("spill: %w", err)
	}
	f.buf = buf
	if _, err := f.w.Write(buf); err != nil {
		return ChunkRef{}, err
	}
	ref := ChunkRef{Off: f.written, Len: int64(len(buf))}
	f.written += ref.Len
	f.dirty = true
	if f.mgr != nil && f.mgr.rec != nil {
		f.mgr.rec.SpillWrote(ref.Len)
	}
	return ref, nil
}

// ReadChunkAt reads the chunk at ref with a positioned read, flushing
// buffered writes first, so it may be interleaved with further writes:
// a shared file can serve one partition while others are still being
// written. A chunk without rows or columns, or with bytes past its
// frame, is corrupt.
func (f *File) ReadChunkAt(ref ChunkRef) ([]*vector.Vector, error) {
	if f.closed {
		return nil, fmt.Errorf("spill: read on closed file")
	}
	if ref.Len <= 0 {
		return nil, fmt.Errorf("spill: chunk ref length %d invalid", ref.Len)
	}
	if f.dirty {
		if err := f.w.Flush(); err != nil {
			return nil, err
		}
		f.dirty = false
	}
	buf := make([]byte, ref.Len)
	if _, err := f.f.ReadAt(buf, ref.Off); err != nil {
		return nil, fmt.Errorf("spill: read chunk at %d: %w", ref.Off, err)
	}
	cols, rest, err := storage.DecodeChunk(buf)
	switch {
	case err != nil:
		return nil, fmt.Errorf("spill: %w", err)
	case len(cols) == 0 || cols[0].Len() == 0:
		return nil, fmt.Errorf("spill: corrupt chunk without rows or columns")
	case len(rest) != 0:
		return nil, fmt.Errorf("spill: %d trailing chunk bytes", len(rest))
	}
	if f.mgr != nil && f.mgr.rec != nil {
		f.mgr.rec.SpillRead(ref.Len)
	}
	return cols, nil
}

// Release closes and removes the file, dropping it from the manager.
// Safe to call more than once; Manager.Close releases any file the
// caller did not.
func (f *File) Release() error {
	if f == nil || f.closed {
		return nil
	}
	if f.mgr != nil {
		f.mgr.release(f)
	}
	return f.closeFile()
}

// closeFile closes and unlinks without touching manager state (the
// manager calls it with its own lock held).
func (f *File) closeFile() error {
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.f.Close()
	if rmErr := os.Remove(f.path); rmErr != nil && err == nil && !os.IsNotExist(rmErr) {
		err = rmErr
	}
	return err
}
