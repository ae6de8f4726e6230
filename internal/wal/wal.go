// Package wal implements a per-database write-ahead log. Writes are
// logged before they apply, so a crash mid-statement loses at most
// unacknowledged work and replay restores exactly the committed
// prefix.
//
// Framing: every record is [len uint32][crc uint32][payload], both
// little-endian, where crc is CRC-32C (Castagnoli) over the payload
// and the payload begins with the record's LSN. Replay stops at the
// first frame that is truncated, oversized, or fails its checksum —
// a torn tail from a crash mid-write — and Open truncates the file
// there, so the log is always frame-aligned for new appends.
//
// Commit durability is group-committed: Append assigns an LSN and
// buffers the frame under a short critical section; Commit(lsn) then
// elects the first waiter as leader, which writes and fsyncs every
// frame buffered so far in one batch while later committers queue up
// for the next round. N concurrent writers therefore share fsyncs
// instead of paying one each, which is where the multi-writer INSERT
// throughput comes from (GroupStats counts the fsyncs).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"vexdb/internal/storage"
)

// SyncMode selects the durability/latency trade-off of Commit.
type SyncMode int

const (
	// SyncGroup (the default) fsyncs once per group-commit batch:
	// every Commit returns only after its record is on stable storage,
	// and concurrent committers share the fsync.
	SyncGroup SyncMode = iota
	// Value 1 was the per-record-fsync mode, since removed; it stays
	// unused so the remaining modes keep their numeric values.
	_
	// SyncNone writes records to the OS buffer cache on Commit but
	// never fsyncs there; the log is synced only at checkpoints and
	// Close. An OS crash can lose the un-synced suffix (replay still
	// restores a clean prefix).
	SyncNone
)

// ParseSyncMode maps the CLI spellings to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "group", "always", "full":
		return SyncGroup, nil
	case "none", "async", "off":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want group or none)", s)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// LogName is the log's file name inside its directory.
const LogName = "wal.log"

const frameHeader = 8 // len + crc

// Log is an append-only record log. Append/Commit/Sync are safe for
// concurrent use; Replay and Reset belong to the (single-threaded)
// open and checkpoint paths.
type Log struct {
	dir  string
	mode SyncMode

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	buf     []byte // appended frames not yet written to the file
	nextLSN uint64 // next LSN to assign
	durable uint64 // highest LSN written (and, per mode, fsynced)
	syncing bool   // a group-commit leader is writing outside mu
	err     error  // sticky I/O failure: the log is dead once set
	size    int64  // file bytes plus buffered bytes

	validEnd int64  // frame-aligned end of the replayable region
	maxLSN   uint64 // highest LSN among valid frames at open

	// commit-batching observables
	syncs   atomic.Int64 // fsync calls issued for commits
	commits atomic.Int64 // records made durable by those fsyncs
}

// Open opens (creating if needed) the log in dir, scans it for the
// last valid frame, and truncates any torn tail so the file ends
// frame-aligned. Records already in the log are not applied — call
// Replay for that.
func Open(dir string, mode SyncMode) (*Log, error) {
	_, dirErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, LogName)
	_, fileErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// A new log's directory entry, and a new directory's entry in its
	// parent, are made durable before any record is: otherwise a power
	// loss before the first checkpoint syncs the directory can drop the
	// file and every acknowledged write in it (Pillai et al., OSDI
	// 2014). The kill -9 harness cannot show this, since a killed
	// process leaves the page cache intact; a test waits for a file
	// layer that can drop unsynced directory entries.
	if os.IsNotExist(fileErr) {
		dirs := []string{dir}
		if os.IsNotExist(dirErr) {
			dirs = append(dirs, filepath.Dir(dir))
		}
		for _, d := range dirs {
			if err := storage.SyncDir(d); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	l := &Log{dir: dir, mode: mode, f: f}
	l.cond = sync.NewCond(&l.mu)
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > l.validEnd {
		// Torn tail: a crash cut a frame short. Drop it so appends
		// start frame-aligned.
		if err := f.Truncate(l.validEnd); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(l.validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.size = l.validEnd
	l.nextLSN = l.maxLSN + 1
	l.durable = l.maxLSN
	return l, nil
}

// scan walks the frames, validating length and checksum, and records
// the end offset of the valid prefix plus the highest LSN in it. LSNs
// must be strictly increasing; a decrease means the frame is stale or
// corrupt and ends the valid region.
func (l *Log) scan() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var off int64
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(l.f, hdr[:]); err != nil {
			break // clean EOF or torn header: valid region ends here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFramePayload {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(l.f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		if len(payload) < 8 {
			break
		}
		lsn := binary.LittleEndian.Uint64(payload[:8])
		if lsn <= l.maxLSN {
			break
		}
		l.maxLSN = lsn
		off += frameHeader + int64(n)
	}
	l.validEnd = off
	return nil
}

// Replay re-reads the valid region and calls fn for every record in
// LSN order. It must run before the first Append.
func (l *Log) Replay(fn func(*Record) error) error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := io.LimitReader(l.f, l.validEnd)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		rec, err := decodePayload(payload)
		if err != nil {
			// The frame passed its CRC, so this is a format error, not
			// a torn write: surface it rather than silently dropping
			// committed data.
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	_, err := l.f.Seek(l.validEnd, io.SeekStart)
	return err
}

// EnsureNextLSN raises the next LSN to assign to at least lsn+1 (used
// after reading a checkpoint manifest newer than the log's contents).
func (l *Log) EnsureNextLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn >= l.nextLSN {
		l.nextLSN = lsn + 1
		if l.durable < lsn {
			l.durable = lsn
		}
	}
}

// Append assigns the record its LSN and buffers its frame. The record
// is not durable (and with SyncGroup not even written) until a
// Commit at or past the returned LSN returns; callers must not
// acknowledge the write before then.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	rec.LSN = l.nextLSN
	payload, err := encodePayload(rec)
	if err != nil {
		return 0, err
	}
	l.nextLSN++
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.size += int64(frameHeader + len(payload))
	return rec.LSN, nil
}

// Commit blocks until every record up to lsn is durable (SyncGroup)
// or written to the OS (SyncNone). The first committer of a round
// becomes the leader and writes+fsyncs the whole buffer; committers
// arriving during the fsync batch into the next round.
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.durable >= lsn {
			return nil
		}
		if l.err != nil {
			return l.err
		}
		if !l.syncing {
			l.syncing = true
			// Let writers that just woke from the previous broadcast
			// re-append before the batch is captured (commit_delay in
			// miniature): the new leader is usually the first waker, and
			// capturing instantly would sync a near-empty batch while
			// the herd is still queued on mu. Yield until the buffer
			// stops growing between peeks.
			for {
				n := len(l.buf)
				l.mu.Unlock()
				runtime.Gosched()
				l.mu.Lock()
				if len(l.buf) == n || l.err != nil {
					break
				}
			}
			buf := l.buf
			l.buf = nil
			high := l.nextLSN - 1
			l.mu.Unlock()
			var err error
			if len(buf) > 0 {
				_, err = l.f.Write(buf)
			}
			if err == nil && l.mode == SyncGroup {
				err = l.f.Sync()
				l.syncs.Add(1)
			}
			l.mu.Lock()
			l.syncing = false
			if err != nil {
				l.err = err
			} else if high > l.durable {
				l.commits.Add(int64(high - l.durable))
				l.durable = high
			}
			l.cond.Broadcast()
			continue
		}
		l.cond.Wait()
	}
}

// flushLocked writes the buffer and fsyncs. Caller holds mu with no
// leader in flight.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = err
			return err
		}
		l.buf = nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	if l.nextLSN > 0 && l.nextLSN-1 > l.durable {
		l.durable = l.nextLSN - 1
	}
	return nil
}

// Sync flushes all buffered frames and fsyncs, whatever the mode
// (checkpoints and Close call it).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	return l.flushLocked()
}

// Reset seals the log at a checkpoint: the file is truncated to empty
// and re-seeded with a single RecCheckpoint frame carrying
// checkpointLSN, then fsynced. Every record at or before
// checkpointLSN must already be captured by the checkpoint's table
// files. Concurrent appenders must be quiesced by the caller.
func (l *Log) Reset(checkpointLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	l.buf = nil
	if err := l.f.Truncate(0); err != nil {
		l.err = err
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.err = err
		return err
	}
	payload, err := encodePayload(&Record{LSN: checkpointLSN, Type: RecCheckpoint})
	if err != nil {
		return err
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	frame := append(hdr[:], payload...)
	if _, err := l.f.Write(frame); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.size = int64(len(frame))
	if checkpointLSN >= l.nextLSN {
		l.nextLSN = checkpointLSN + 1
	}
	if l.durable < l.nextLSN-1 {
		l.durable = l.nextLSN - 1
	}
	return nil
}

// GroupStats reports the commit fsyncs issued and the records they
// made durable; commits/syncs is the effective group-commit batch
// size.
func (l *Log) GroupStats() (syncs, commits int64) {
	return l.syncs.Load(), l.commits.Load()
}

// LastLSN returns the highest assigned LSN (0 when none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Size returns the log's current size in bytes, buffered frames
// included (callers use it to decide when to checkpoint).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, fsyncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	flushErr := l.flushLocked()
	closeErr := l.f.Close()
	if l.err == nil {
		l.err = fmt.Errorf("wal: log closed")
	}
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
