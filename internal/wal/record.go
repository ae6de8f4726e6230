package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Type tags one logical write operation in the log.
type Type uint8

const (
	// RecCreate registers a table (schema, and for CTAS optionally its
	// initial rows in the same record, so a crash can never leave the
	// statement half-applied).
	RecCreate Type = 1
	// RecInsert appends a chunk of rows to a table. One INSERT
	// statement produces exactly one record, whatever its row count.
	RecInsert Type = 2
	// RecTruncate removes all rows of a table, keeping the schema.
	RecTruncate Type = 3
	// RecDrop removes a table.
	RecDrop Type = 4
	// RecReplace substituted a table's entire contents with the
	// record's chunk; builds before RecRewrite logged DELETE and UPDATE
	// this way. It is neither written nor replayed any more: decoding
	// one is ErrCorrupt, and the number stays reserved.
	RecReplace Type = 5
	// RecCheckpoint marks a durable checkpoint: every record at or
	// before its LSN is captured by the checkpoint's table files, and a
	// freshly sealed (truncated) log begins with one.
	RecCheckpoint Type = 6
	// RecRewrite deletes the table rows its Ranges name (DELETE with
	// WHERE) or overwrites them in place with its Chunk (UPDATE), so it
	// costs bytes in proportion to the rows matched, not the table.
	RecRewrite Type = 7
)

func (t Type) String() string {
	switch t {
	case RecCreate:
		return "create"
	case RecInsert:
		return "insert"
	case RecTruncate:
		return "truncate"
	case RecDrop:
		return "drop"
	case RecReplace:
		return "replace"
	case RecCheckpoint:
		return "checkpoint"
	case RecRewrite:
		return "rewrite"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ColumnDef is one column of a RecCreate schema.
type ColumnDef struct {
	Name string
	Type vector.Type
}

// Record is one logical operation. LSN is assigned by Log.Append.
type Record struct {
	LSN   uint64
	Type  Type
	Table string
	// Cols carries the schema of a RecCreate.
	Cols []ColumnDef
	// Chunk carries the rows of RecInsert, and optionally of a CTAS
	// RecCreate or (as replacement rows) of a RecRewrite, in the chunk
	// frame spill files also use (storage.AppendChunk). Its column
	// payloads are the raw layout of disk segments and wire columnar
	// frames; the frame around them is not shared with either.
	Chunk *vector.Chunk
	// Ranges names the rows a RecRewrite touches by global ordinal —
	// position in the table, not (segment, row): a checkpoint seals the
	// open tail into its image, so segment boundaries after a restart
	// differ from the ones the record was logged against, while row
	// order does not.
	Ranges []storage.RowRange
}

// ErrCorrupt is wrapped by every error decoding a record body returns:
// the frame passed its checksum but its contents are malformed.
var ErrCorrupt = errors.New("wal: corrupt record")

// maxFramePayload bounds one record's payload; anything larger in the
// file is treated as corruption (a torn or overwritten length field).
const maxFramePayload = 1 << 30

// maxOrdinal bounds a RecRewrite ordinal: far past any table a process
// can hold, and low enough that Start+Len never overflows.
const maxOrdinal = 1 << 48

// encodePayload serializes the record body (everything the frame CRC
// covers).
func encodePayload(r *Record) ([]byte, error) {
	out := binary.LittleEndian.AppendUint64(nil, r.LSN)
	out = append(out, byte(r.Type))
	switch r.Type {
	case RecCheckpoint:
		return out, nil
	case RecTruncate, RecDrop:
		return appendString16(out, r.Table), nil
	case RecInsert:
		if r.Chunk == nil {
			return nil, fmt.Errorf("wal: insert record carries no chunk")
		}
		out = appendString16(out, r.Table)
		return appendChunk(out, r.Chunk)
	case RecCreate:
		out = appendString16(out, r.Table)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Cols)))
		for _, c := range r.Cols {
			out = appendString16(out, c.Name)
			out = append(out, byte(c.Type))
		}
		if r.Chunk == nil || r.Chunk.NumRows() == 0 {
			return append(out, 0), nil
		}
		out = append(out, 1)
		return appendChunk(out, r.Chunk)
	case RecRewrite:
		out = appendString16(out, r.Table)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Ranges)))
		for _, g := range r.Ranges {
			out = binary.LittleEndian.AppendUint64(out, uint64(g.Start))
			out = binary.LittleEndian.AppendUint64(out, uint64(g.End-g.Start))
		}
		if r.Chunk == nil {
			return append(out, 0), nil
		}
		out = append(out, 1)
		return appendChunk(out, r.Chunk)
	}
	return nil, fmt.Errorf("wal: encode record of unknown type %d", r.Type)
}

func appendString16(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func appendChunk(out []byte, ch *vector.Chunk) ([]byte, error) {
	out, err := storage.AppendChunk(out, ch.Cols())
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return out, nil
}

// decodePayload parses one record body. Decoding is strict: truncated
// or trailing bytes are corruption, never best-effort.
func decodePayload(p []byte) (*Record, error) {
	d := &decoder{buf: p}
	r := &Record{LSN: d.u64(), Type: Type(d.u8())}
	switch r.Type {
	case RecCheckpoint:
	case RecTruncate, RecDrop:
		r.Table = d.str16()
	case RecInsert:
		r.Table = d.str16()
		r.Chunk = d.chunk()
	case RecCreate:
		r.Table = d.str16()
		// A column definition takes at least three bytes.
		ncols := int(d.u16())
		if d.err == nil && (ncols > 1<<12 || ncols > (len(d.buf)-d.off)/3) {
			d.err = fmt.Errorf("implausible column count %d", ncols)
		}
		if d.err == nil {
			r.Cols = make([]ColumnDef, 0, ncols)
		}
		for i := 0; i < ncols && d.err == nil; i++ {
			c := ColumnDef{Name: d.str16(), Type: vector.Type(d.u8())}
			if d.err == nil && (c.Type == vector.Invalid || c.Type > vector.Blob) {
				d.err = fmt.Errorf("column %q of type %d", c.Name, c.Type)
			}
			r.Cols = append(r.Cols, c)
		}
		if d.u8() == 1 {
			r.Chunk = d.chunk()
		}
	case RecRewrite:
		r.Table = d.str16()
		var n int
		r.Ranges, n = d.ranges()
		switch flag := d.u8(); {
		case flag == 1:
			r.Chunk = d.chunk()
			if d.err == nil && r.Chunk.NumRows() != n {
				d.err = fmt.Errorf("%d replacement rows for %d ordinals", r.Chunk.NumRows(), n)
			}
		case flag != 0 && d.err == nil:
			d.err = fmt.Errorf("rows flag %d", flag)
		}
	case RecReplace:
		return nil, fmt.Errorf("%w: type %d (%s) is retired: only builds before rewrite records wrote it", ErrCorrupt, r.Type, r.Type)
	default:
		return nil, fmt.Errorf("%w: type %d unknown", ErrCorrupt, r.Type)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: decode %s record: %w", ErrCorrupt, r.Type, d.err)
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %s record has %d trailing bytes", ErrCorrupt, r.Type, len(d.buf)-d.off)
	}
	return r, nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("truncated at byte %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str16() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// ranges reads a RecRewrite's ordinal runs, each a start and a length,
// and rejects runs that are empty, unsorted, overlapping or past
// maxOrdinal. It returns the runs and the rows they name.
func (d *decoder) ranges() ([]storage.RowRange, int) {
	n := int(d.u32())
	if d.err != nil {
		return nil, 0
	}
	if n > (len(d.buf)-d.off)/16 {
		d.err = fmt.Errorf("%d row ranges in %d bytes", n, len(d.buf)-d.off)
		return nil, 0
	}
	out := make([]storage.RowRange, n)
	for i := range out {
		start, length := d.u64(), d.u64()
		if start > maxOrdinal || length > maxOrdinal {
			d.err = fmt.Errorf("row range %d at ordinal %d, %d rows: out of range", i, start, length)
			return nil, 0
		}
		out[i] = storage.RowRange{Start: int(start), End: int(start + length)}
	}
	rows, err := storage.CheckRanges(out, maxOrdinal)
	if err != nil {
		d.err = err
		return nil, 0
	}
	return out, rows
}

func (d *decoder) chunk() *vector.Chunk {
	if d.err != nil {
		return nil
	}
	cols, rest, err := storage.DecodeChunk(d.buf[d.off:])
	if err != nil {
		d.err = err
		return nil
	}
	d.off = len(d.buf) - len(rest)
	return vector.NewChunk(cols...)
}
