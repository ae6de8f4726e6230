package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"vexdb/internal/vector"
)

// On-disk table format, version 3 (all integers little-endian):
//
//	magic   [8]byte  "VXTB0003"
//	ncols   uint32
//	nrows   uint64
//	per column: nameLen uint16, name bytes, type uint8
//	nsegs   uint32
//	per segment:
//	  rows uint32 (1..SegmentRows)
//	  per column block:
//	    enc uint8 (raw / rle / for / dict)
//	    zoneFlags uint8 (bit0: min/max present, bit1: HLL sketch present)
//	    nullCount uint32
//	    [min value, max value]  (type uint8 + typed payload)
//	    [sketch: p uint8, 2^p register bytes]
//	    payloadLen uint64, payload bytes, crc32(payload) uint32
//
// Segments are stored in their sealed (possibly compressed) form and
// stay encoded after loading: LoadTableFile attaches the payload
// bytes, zone maps and distinct-count sketches directly, and columns
// decode lazily when first scanned. Version 3 is the only version
// read or written; any other magic, including the retired versions 1
// and 2, is rejected. A sketch whose register width differs from the
// current hllP is skipped rather than rejected, so a future precision
// change stays backward readable.
var tableMagicV3 = [8]byte{'V', 'X', 'T', 'B', '0', '0', '0', '3'}

const nullMarker = uint32(0xFFFFFFFF)

// sealedView returns every non-empty segment in sealed form for
// persistence: sealed segments as-is, the open tail sealed into a
// temporary view with its payload fixed (the store itself is not
// modified). The view is taken from one pinned version, so it is a
// consistent point-in-time image even while writers run.
func (s *ColumnStore) sealedView() (segRows []int, segCols [][]*SealedColumn, err error) {
	s.mu.Lock()
	compress := s.compress
	snap := s.Snapshot()
	s.mu.Unlock()
	for _, seg := range snap.v.segs {
		if seg.sealed != nil {
			segRows = append(segRows, seg.rows)
			segCols = append(segCols, seg.sealed)
			continue
		}
		if seg.rows == 0 {
			continue
		}
		tmp := make([]*SealedColumn, len(seg.cols))
		for i, c := range seg.cols {
			sc := sealColumn(c, compress)
			if sc.payload == nil {
				// Detach from the live tail vector: appends after this
				// snapshot must not affect the written payload.
				sc.payload, err = AppendColumn(nil, c)
				if err != nil {
					return nil, nil, err
				}
			}
			tmp[i] = sc
		}
		segRows = append(segRows, seg.rows)
		segCols = append(segCols, tmp)
	}
	return segRows, segCols, nil
}

// WriteTable writes names, types, zone maps and the sealed (possibly
// compressed) column payloads of every segment to w.
func WriteTable(w io.Writer, names []string, store *ColumnStore) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(tableMagicV3[:]); err != nil {
		return err
	}
	types := store.Types()
	if len(names) != len(types) {
		return fmt.Errorf("storage: %d names for %d columns", len(names), len(types))
	}
	segRows, segCols, err := store.sealedView()
	if err != nil {
		return err
	}
	var nrows uint64
	for _, r := range segRows {
		nrows += uint64(r)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(types))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, nrows); err != nil {
		return err
	}
	for i, name := range names {
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(types[i])); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(segRows))); err != nil {
		return err
	}
	var scratch []byte
	for si, cols := range segCols {
		if err := binary.Write(bw, binary.LittleEndian, uint32(segRows[si])); err != nil {
			return err
		}
		for c, sc := range cols {
			if err := bw.WriteByte(byte(sc.Enc)); err != nil {
				return err
			}
			var flags byte
			if sc.Zone.HasMinMax() {
				flags |= 1
			}
			if sc.Sketch != nil {
				flags |= 2
			}
			if err := bw.WriteByte(flags); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(sc.Zone.NullCount)); err != nil {
				return err
			}
			if flags&1 != 0 {
				if err := writeZoneValue(bw, sc.Zone.Min); err != nil {
					return err
				}
				if err := writeZoneValue(bw, sc.Zone.Max); err != nil {
					return err
				}
			}
			if flags&2 != 0 {
				if err := bw.WriteByte(hllP); err != nil {
					return err
				}
				if _, err := bw.Write(sc.Sketch.Registers()); err != nil {
					return err
				}
			}
			// A column sealed raw in memory is encoded into one buffer
			// reused across the file's columns.
			payload := sc.payload
			if payload == nil {
				if scratch, err = AppendColumn(scratch[:0], sc.vec); err != nil {
					return fmt.Errorf("storage: column %q: %w", names[c], err)
				}
				payload = scratch
			}
			if err := binary.Write(bw, binary.LittleEndian, uint64(len(payload))); err != nil {
				return err
			}
			if _, err := bw.Write(payload); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, crc32.ChecksumIEEE(payload)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeZoneValue serializes a zone-map boundary as a type byte plus a
// typed payload.
func writeZoneValue(bw *bufio.Writer, v vector.Value) error {
	if err := bw.WriteByte(byte(v.Type())); err != nil {
		return err
	}
	switch v.Type() {
	case vector.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return bw.WriteByte(b)
	case vector.Int32:
		return binary.Write(bw, binary.LittleEndian, uint32(v.Int64()))
	case vector.Int64:
		return binary.Write(bw, binary.LittleEndian, uint64(v.Int64()))
	case vector.Float64:
		return binary.Write(bw, binary.LittleEndian, math.Float64bits(v.Float64()))
	case vector.String:
		s := v.Str()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	return fmt.Errorf("storage: zone value of type %s not serializable", v.Type())
}

func readZoneValue(br *bufio.Reader) (vector.Value, error) {
	tb, err := br.ReadByte()
	if err != nil {
		return vector.Null(), err
	}
	switch vector.Type(tb) {
	case vector.Bool:
		b, err := br.ReadByte()
		if err != nil {
			return vector.Null(), err
		}
		return vector.NewBool(b != 0), nil
	case vector.Int32:
		var x uint32
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return vector.Null(), err
		}
		return vector.NewInt32(int32(x)), nil
	case vector.Int64:
		var x uint64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return vector.Null(), err
		}
		return vector.NewInt64(int64(x)), nil
	case vector.Float64:
		var x uint64
		if err := binary.Read(br, binary.LittleEndian, &x); err != nil {
			return vector.Null(), err
		}
		return vector.NewFloat64(math.Float64frombits(x)), nil
	case vector.String:
		var l uint32
		if err := binary.Read(br, binary.LittleEndian, &l); err != nil {
			return vector.Null(), err
		}
		if l > 1<<20 {
			return vector.Null(), fmt.Errorf("zone string %d bytes implausible", l)
		}
		b, err := ReadBytes(br, uint64(l))
		if err != nil {
			return vector.Null(), err
		}
		return vector.NewString(string(b)), nil
	}
	return vector.Null(), fmt.Errorf("zone value type %d invalid", tb)
}

// ErrBadTableFile is wrapped by every error ReadTable returns: the
// input is no version-3 table file, is cut short, or is corrupt.
var ErrBadTableFile = errors.New("bad table file")

// ReadTable reads a table written by WriteTable (version 3). Other
// versions are rejected. Whatever the input, it allocates in proportion
// to the bytes it reads, past a fixed read buffer: no length or count
// in the file is trusted before its bytes arrive.
func ReadTable(r io.Reader) (names []string, store *ColumnStore, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err = io.ReadFull(br, magic[:]); err != nil {
		err = fmt.Errorf("read magic: %w", err)
	} else if magic != tableMagicV3 {
		err = fmt.Errorf("bad magic %q (unsupported table file version)", magic[:])
	} else {
		names, store, err = readTableSegments(br)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w: %w", ErrBadTableFile, err)
	}
	return names, store, nil
}

// ReadBytes reads n bytes, growing its buffer as they arrive, so a
// corrupt or hostile length fails at the end of the input instead of
// allocating all it claims: what it allocates is bounded by 64 KiB plus
// a small multiple of the bytes that did arrive. Table files and the
// wire server's requests are read through it.
func ReadBytes(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	for read := 0; ; {
		k, err := io.ReadFull(r, buf[read:])
		if read += k; err != nil {
			return nil, err
		}
		if uint64(read) == n {
			return buf, nil
		}
		grow := int(min(n-uint64(read), uint64(read)))
		buf = slices.Grow(buf, grow)[:read+grow]
	}
}

// readHeader reads the column-meta header.
func readHeader(br *bufio.Reader) (names []string, types []vector.Type, nrows uint64, err error) {
	var ncols uint32
	if err := binary.Read(br, binary.LittleEndian, &ncols); err != nil {
		return nil, nil, 0, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nrows); err != nil {
		return nil, nil, 0, err
	}
	for range ncols {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, nil, 0, err
		}
		nb, err := ReadBytes(br, uint64(nameLen))
		if err != nil {
			return nil, nil, 0, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, nil, 0, err
		}
		if t := vector.Type(tb); t == vector.Invalid || t > vector.Blob {
			return nil, nil, 0, fmt.Errorf("column %q: type %d invalid", nb, tb)
		}
		names, types = append(names, string(nb)), append(types, vector.Type(tb))
	}
	return names, types, nrows, nil
}

// readTableSegments reads the segmented body.
func readTableSegments(br *bufio.Reader) (names []string, store *ColumnStore, err error) {
	names, types, nrows, err := readHeader(br)
	if err != nil {
		return nil, nil, err
	}
	if len(types) == 0 {
		return nil, nil, errors.New("no columns")
	}
	var nsegs uint32
	if err := binary.Read(br, binary.LittleEndian, &nsegs); err != nil {
		return nil, nil, err
	}
	var total uint64
	var segs []*segment
	for si := uint32(0); si < nsegs; si++ {
		var rows uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return nil, nil, err
		}
		if rows == 0 || rows > SegmentRows {
			return nil, nil, fmt.Errorf("segment %d has %d rows (max %d)", si, rows, SegmentRows)
		}
		cols := make([]*SealedColumn, len(types))
		for c := range types {
			eb, err := br.ReadByte()
			if err != nil {
				return nil, nil, err
			}
			enc := Encoding(eb)
			if !validEncoding(enc) {
				return nil, nil, fmt.Errorf("column %q: unknown encoding %d", names[c], eb)
			}
			if err := encodingValidForType(enc, types[c]); err != nil {
				return nil, nil, fmt.Errorf("column %q: %w", names[c], err)
			}
			flags, err := br.ReadByte()
			if err != nil {
				return nil, nil, err
			}
			var nullCount uint32
			if err := binary.Read(br, binary.LittleEndian, &nullCount); err != nil {
				return nil, nil, err
			}
			if nullCount > rows {
				return nil, nil, fmt.Errorf("column %q: %d NULLs in %d rows", names[c], nullCount, rows)
			}
			zone := ZoneMap{NullCount: int(nullCount), Rows: int(rows)}
			if flags&1 != 0 {
				if zone.Min, err = readZoneValue(br); err != nil {
					return nil, nil, err
				}
				if zone.Max, err = readZoneValue(br); err != nil {
					return nil, nil, err
				}
				// The writer always emits bounds of the column's own
				// type; a mismatch is corruption and must fail here —
				// at scan time a wrongly-typed bound could silently
				// over-prune instead of erroring.
				if zone.Min.Type() != types[c] || zone.Max.Type() != types[c] {
					return nil, nil, fmt.Errorf("column %q: zone bounds typed %s/%s for %s column",
						names[c], zone.Min.Type(), zone.Max.Type(), types[c])
				}
			}
			var sketch *HLL
			if flags&2 != 0 {
				p, err := br.ReadByte()
				if err != nil {
					return nil, nil, err
				}
				if p == 0 || p > 16 {
					return nil, nil, fmt.Errorf("column %q: sketch precision %d invalid", names[c], p)
				}
				regs, err := ReadBytes(br, 1<<p)
				if err != nil {
					return nil, nil, err
				}
				// A precision other than the current hllP reads cleanly
				// but is not adopted (the planner just sees no sketch).
				sketch = hllFromRegisters(regs)
			}
			var plen uint64
			if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
				return nil, nil, err
			}
			payload, err := ReadBytes(br, plen)
			if err != nil {
				return nil, nil, err
			}
			var sum uint32
			if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
				return nil, nil, err
			}
			if crc32.ChecksumIEEE(payload) != sum {
				return nil, nil, fmt.Errorf("column %q: checksum mismatch", names[c])
			}
			cols[c] = loadedColumn(enc, types[c], int(rows), zone, sketch, payload)
		}
		segs = append(segs, &segment{rows: int(rows), sealed: cols, zones: zonesOf(cols)})
		total += uint64(rows)
	}
	if total != nrows {
		return nil, nil, fmt.Errorf("segments hold %d rows, header says %d", total, nrows)
	}
	store = NewColumnStore(types)
	store.cur.Store(&tableVersion{segs: segs, rows: int(total)})
	return names, store, nil
}

// encodingValidForType rejects encoding/type pairs the encoder never
// produces, so corrupt files fail at load instead of scan time.
func encodingValidForType(enc Encoding, t vector.Type) error {
	switch enc {
	case EncRLE, EncFOR:
		if t != vector.Int32 && t != vector.Int64 {
			return fmt.Errorf("encoding %s invalid for %s", enc, t)
		}
	case EncDict:
		if t != vector.String {
			return fmt.Errorf("encoding %s invalid for %s", enc, t)
		}
	}
	return nil
}

// SaveTableFile writes the table to path atomically and durably
// (WriteFileAtomic).
func SaveTableFile(path string, names []string, store *ColumnStore) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteTable(w, names, store) })
}

// WriteFileAtomic replaces path with what write writes: into a
// temporary file beside it, which is fsynced, closed and renamed over
// path, and then the directory is fsynced, so a crash at any point
// leaves the old file or the new one, whole. It returns the first
// error of any step, and on one removes the temporary file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs directory dir, making durable the entries created,
// renamed or removed in it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadTableFile reads a table file written by SaveTableFile. Sealed
// segment payloads stay encoded until first scanned.
func LoadTableFile(path string) ([]string, *ColumnStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadTable(f)
}

// maxChunkCols bounds a chunk frame's column count, for the writer as
// for the reader.
const maxChunkCols = 1 << 12

// AppendChunk appends cols to dst as one chunk frame: u32 rows, u16
// columns, then per column a u8 type, a u32 payload length and the
// column's raw payload (AppendColumn). WAL records and spill files
// carry their rows in this frame; all columns must have equal length.
func AppendChunk(dst []byte, cols []*vector.Vector) ([]byte, error) {
	if len(cols) > maxChunkCols {
		return nil, fmt.Errorf("storage: chunk of %d columns (at most %d)", len(cols), maxChunkCols)
	}
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(cols)))
	for i, c := range cols {
		if c.Len() != rows {
			return nil, fmt.Errorf("storage: chunk column %d has %d rows, not %d", i, c.Len(), rows)
		}
		dst = append(dst, byte(c.Type()), 0, 0, 0, 0)
		at := len(dst)
		var err error
		if dst, err = AppendColumn(dst, c); err != nil {
			return nil, fmt.Errorf("storage: chunk column %d: %w", i, err)
		}
		binary.LittleEndian.PutUint32(dst[at-4:], uint32(len(dst)-at))
	}
	return dst, nil
}

// DecodeChunk parses the chunk frame AppendChunk wrote at the front of
// b and returns its columns and the bytes after it. Decoding is
// strict: a truncated frame, a column count past maxChunkCols or the
// bytes left, rows without columns, and any payload decodeColumn
// rejects are errors, and no count sizes an allocation b does not back.
func DecodeChunk(b []byte) (cols []*vector.Vector, rest []byte, err error) {
	if len(b) < 6 {
		return nil, nil, fmt.Errorf("storage: truncated chunk header (%d bytes)", len(b))
	}
	rows := int(binary.LittleEndian.Uint32(b))
	ncols := int(binary.LittleEndian.Uint16(b[4:]))
	b = b[6:]
	// A column takes at least its type byte and payload length.
	if ncols > maxChunkCols || ncols > len(b)/5 || ncols == 0 && rows != 0 {
		return nil, nil, fmt.Errorf("storage: implausible chunk of %d rows x %d columns in %d bytes", rows, ncols, len(b))
	}
	cols = make([]*vector.Vector, ncols)
	for i := range cols {
		if len(b) < 5 {
			return nil, nil, fmt.Errorf("storage: chunk truncated at column %d", i)
		}
		typ, n := vector.Type(b[0]), binary.LittleEndian.Uint32(b[1:])
		if b = b[5:]; uint64(n) > uint64(len(b)) {
			return nil, nil, fmt.Errorf("storage: chunk truncated in column %d", i)
		}
		if cols[i], err = decodeColumn(typ, rows, b[:n]); err != nil {
			return nil, nil, fmt.Errorf("storage: chunk column %d: %w", i, err)
		}
		b = b[n:]
	}
	return cols, b, nil
}

// AppendColumn appends col's raw storage payload to dst: fixed-width
// values with a one-byte-per-row null trailer when the column has
// NULLs, or per row a u32 length (0xFFFFFFFF for NULL) and the bytes
// of a variable-width value. Chunk frames, the wire protocol's
// columnar frames and raw table-file segments all carry this payload,
// so the on-disk, spilled and on-wire column layouts stay identical.
func AppendColumn(dst []byte, col *vector.Vector) ([]byte, error) {
	n := col.Len()
	if w := col.Type().FixedWidth(); w > 0 {
		dst = slices.Grow(dst, w*n+n)
	}
	switch col.Type() {
	case vector.Bool:
		for i, b := range col.Bools() {
			var v byte
			if b {
				v = 1
			}
			if col.IsNull(i) {
				v = 2
			}
			dst = append(dst, v)
		}
		return dst, nil
	case vector.Int32:
		for _, x := range col.Int32s() {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
		return appendNullTrailer(dst, col), nil
	case vector.Int64:
		for _, x := range col.Int64s() {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
		return appendNullTrailer(dst, col), nil
	case vector.Float64:
		for _, x := range col.Float64s() {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
		return appendNullTrailer(dst, col), nil
	case vector.String:
		for i, s := range col.Strings() {
			if col.IsNull(i) {
				dst = binary.LittleEndian.AppendUint32(dst, nullMarker)
				continue
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
		return dst, nil
	case vector.Blob:
		for i, b := range col.Blobs() {
			if col.IsNull(i) {
				dst = binary.LittleEndian.AppendUint32(dst, nullMarker)
				continue
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
			dst = append(dst, b...)
		}
		return dst, nil
	}
	return nil, fmt.Errorf("unsupported column type %v", col.Type())
}

// DecodeColumn reverses AppendColumn for a column of n rows.
func DecodeColumn(t vector.Type, n int, payload []byte) (*vector.Vector, error) {
	return decodeColumn(t, n, payload)
}

// appendNullTrailer appends one byte per row (1 = NULL) when the
// column has NULLs, or nothing when it has none. The decoder detects
// the trailer from the payload length.
func appendNullTrailer(out []byte, col *vector.Vector) []byte {
	if !col.HasNulls() {
		return out
	}
	for i := 0; i < col.Len(); i++ {
		var v byte
		if col.IsNull(i) {
			v = 1
		}
		out = append(out, v)
	}
	return out
}

// decodeColumn strictly validates its payload: wrong sizes, truncated
// or trailing bytes, and malformed null trailers are rejected with an
// error rather than decoded best-effort.
func decodeColumn(t vector.Type, n int, payload []byte) (*vector.Vector, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative row count %d", n)
	}
	switch t {
	case vector.Bool:
		if len(payload) != n {
			return nil, fmt.Errorf("bool payload %d bytes for %d rows", len(payload), n)
		}
		v := vector.New(vector.Bool, n)
		for i, b := range payload {
			switch b {
			case 0, 1:
				v.AppendValue(vector.NewBool(b == 1))
			case 2:
				v.AppendValue(vector.Null())
			default:
				return nil, fmt.Errorf("bool payload byte %d at row %d (want 0, 1 or 2)", b, i)
			}
		}
		return v, nil
	case vector.Int32:
		data, nulls, err := splitFixed(payload, n, 4)
		if err != nil {
			return nil, err
		}
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		return applyNulls(vector.FromInt32s(out), nulls)
	case vector.Int64:
		data, nulls, err := splitFixed(payload, n, 8)
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return applyNulls(vector.FromInt64s(out), nulls)
	case vector.Float64:
		data, nulls, err := splitFixed(payload, n, 8)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return applyNulls(vector.FromFloat64s(out), nulls)
	case vector.String:
		// Every row costs at least its 4-byte length: a row count the
		// payload cannot hold is rejected before it sizes an allocation.
		if n > len(payload)/4 {
			return nil, fmt.Errorf("truncated string column: %d bytes for %d rows", len(payload), n)
		}
		v := vector.New(vector.String, n)
		off := 0
		for i := 0; i < n; i++ {
			if off+4 > len(payload) {
				return nil, fmt.Errorf("truncated string column at row %d", i)
			}
			l := binary.LittleEndian.Uint32(payload[off:])
			off += 4
			if l == nullMarker {
				v.AppendValue(vector.Null())
				continue
			}
			if uint64(off)+uint64(l) > uint64(len(payload)) {
				return nil, fmt.Errorf("truncated string column at row %d", i)
			}
			v.AppendValue(vector.NewString(string(payload[off : off+int(l)])))
			off += int(l)
		}
		if off != len(payload) {
			return nil, fmt.Errorf("string column has %d trailing bytes", len(payload)-off)
		}
		return v, nil
	case vector.Blob:
		if n > len(payload)/4 {
			return nil, fmt.Errorf("truncated blob column: %d bytes for %d rows", len(payload), n)
		}
		v := vector.New(vector.Blob, n)
		off := 0
		for i := 0; i < n; i++ {
			if off+4 > len(payload) {
				return nil, fmt.Errorf("truncated blob column at row %d", i)
			}
			l := binary.LittleEndian.Uint32(payload[off:])
			off += 4
			if l == nullMarker {
				v.AppendValue(vector.Null())
				continue
			}
			if uint64(off)+uint64(l) > uint64(len(payload)) {
				return nil, fmt.Errorf("truncated blob column at row %d", i)
			}
			v.AppendValue(vector.NewBlob(append([]byte(nil), payload[off:off+int(l)]...)))
			off += int(l)
		}
		if off != len(payload) {
			return nil, fmt.Errorf("blob column has %d trailing bytes", len(payload)-off)
		}
		return v, nil
	}
	return nil, fmt.Errorf("unsupported column type %v", t)
}

// splitFixed splits a fixed-width payload into data and an optional
// null trailer. A payload that is neither exactly the data nor the
// data plus a full one-byte-per-row trailer is truncated or padded
// and rejected.
func splitFixed(payload []byte, n, width int) (data, nulls []byte, err error) {
	switch len(payload) {
	case n * width:
		return payload, nil, nil
	case n*width + n:
		return payload[:n*width], payload[n*width:], nil
	default:
		return nil, nil, fmt.Errorf("payload %d bytes for %d rows of width %d (truncated null trailer?)", len(payload), n, width)
	}
}

// applyNulls marks rows NULL from a trailer of 0/1 bytes, rejecting
// any other byte value as corruption, and so is a trailer that marks no
// row: AppendColumn writes one only for a column with NULLs, so every
// payload decodes to a column that re-encodes to the same bytes.
func applyNulls(v *vector.Vector, nulls []byte) (*vector.Vector, error) {
	for i, b := range nulls {
		switch b {
		case 0:
		case 1:
			v.SetNull(i)
		default:
			return nil, fmt.Errorf("null trailer byte %d at row %d (want 0 or 1)", b, i)
		}
	}
	if nulls != nil && !v.HasNulls() {
		return nil, fmt.Errorf("null trailer marks none of %d rows NULL", len(nulls))
	}
	return v, nil
}
