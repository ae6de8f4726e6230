// Package wire implements the client/server protocols used by the
// socket-transfer baselines of Figure 1. A Server exposes a vexdb
// engine over TCP; clients fetch query results with one of three
// encodings whose costs mirror the paper's comparison systems:
//
//   - TextRows: row-at-a-time, text-serialized fields (the
//     PostgreSQL-protocol analog) — every value is printed and
//     re-parsed, the slowest path.
//   - BinaryRows: row-at-a-time, binary fields (the MySQL-protocol
//     analog) — no text conversion but still row-major framing.
//   - Columnar: the engine's native bulk columnar transfer (what a
//     redesigned client protocol can achieve, cf. Raasveldt &
//     Mühleisen, VLDB 2017).
//
// Since protocol version 2 results are delivered as a stream of
// length-prefixed chunk frames pulled straight from the executor, so
// the server never materializes a result and time-to-first-row is
// independent of result size. See README.md for the frame format.
//
// RowIterate provides the SQLite analog: an in-process row-at-a-time
// cursor with a typed per-value copy but no socket.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/governor"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// Version is the wire protocol revision. Version 2 replaced the
// monolithic status-byte + full-payload response of version 1 with
// chunk-framed streaming delivery; the request encoding is unchanged.
// Both ends of a deployment must run the same major revision — there
// is no negotiation (client and server ship in one module).
const Version = 2

// Protocol selects the result encoding inside chunk frames.
type Protocol uint8

// Supported protocols.
const (
	// TextRows serializes every value to text, row by row (pg-like).
	TextRows Protocol = iota + 1
	// BinaryRows sends binary values, row by row (mysql-like).
	BinaryRows
	// Columnar bulk-transfers whole columns (vexdb native).
	Columnar

	// protoCancel marks a control request rather than a query: its SQL
	// payload is empty and the server cancels the connection's last
	// query (a no-op once it has finished) instead of replying. The
	// client may send it from another goroutine while a result is
	// streaming or the query is queued; the cancelled query terminates
	// with an in-band error frame carrying ErrQueryCancelled, and the
	// connection stays usable.
	protoCancel Protocol = 0xF0
)

func (p Protocol) String() string {
	switch p {
	case TextRows:
		return "text-rows"
	case BinaryRows:
		return "binary-rows"
	case Columnar:
		return "columnar"
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// Request framing (unchanged from v1): u32 SQL length, protocol byte,
// SQL bytes.
//
// Response framing (v2): a sequence of frames, each
//
//	kind byte | u32 payload length | payload
//
// One response is either
//
//	frameError                                 (statement failed)
//	frameAffected                              (no result rows)
//	frameSchema frameChunk* (frameEnd | frameError)
//
// A frameError after chunks reports a mid-stream execution failure;
// the connection stays usable for further requests either way.
const (
	frameSchema   byte = 'S' // u32 ncols, then per column: u16 name len, name, type byte
	frameChunk    byte = 'C' // u32 nrows, then the protocol-specific chunk body
	frameEnd      byte = 'E' // u64 total rows delivered
	frameError    byte = 'X' // error message bytes
	frameAffected byte = 'A' // u64 rows affected
	frameRetry    byte = 'R' // u32 retry-after millis, then reason bytes
)

// maxFrameSize caps frame payloads accepted from the peer. Chunks are
// bounded by vector.DefaultChunkSize rows, so anything near this limit
// is a corrupt or hostile stream.
const maxFrameSize = 1 << 28

// ErrMalformed reports a schema or chunk frame from the server that
// does not decode: truncated or trailing bytes, a bad null flag or
// field, a row count the body cannot hold, or an unknown column type.
var ErrMalformed = errors.New("wire: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
}

func writeRequest(w io.Writer, proto Protocol, sql string) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(sql)))
	hdr[4] = byte(proto)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, sql)
	return err
}

// maxRequestSize caps the SQL text of one request. Between it and
// maxDiscardSize the payload is consumed and discarded so the server
// can reject the query in-band and keep the connection; beyond the
// discard limit the connection is dropped rather than read through.
const (
	maxRequestSize = 1 << 24
	maxDiscardSize = 1 << 26
)

// requestTooLargeError reports an oversized-but-discarded request: the
// stream is positioned at the next request, so the connection remains
// usable.
type requestTooLargeError struct{ n uint32 }

func (e *requestTooLargeError) Error() string {
	return fmt.Sprintf("wire: request too large (%d bytes, limit %d)", e.n, maxRequestSize)
}

// readRequest reads one client request: a 4-byte little-endian length,
// the protocol byte and that many bytes of SQL. The text is read as it
// arrives (storage.ReadBytes), so a header claiming 16 MiB costs the
// server nothing until the bytes come.
func readRequest(r io.Reader) (Protocol, string, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxRequestSize {
		if n > maxDiscardSize {
			return 0, "", fmt.Errorf("wire: request of %d bytes exceeds discard limit", n)
		}
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return 0, "", err
		}
		return Protocol(hdr[4]), "", &requestTooLargeError{n}
	}
	sql, err := storage.ReadBytes(r, uint64(n))
	if err != nil {
		return 0, "", err
	}
	return Protocol(hdr[4]), string(sql), nil
}

// ----------------------------------------------------------- frames

func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one server frame: the kind byte, a 4-byte
// little-endian length and the payload. It allocates the claimed length
// at once: the peer is the server the client dialed, its chunk frames
// are legitimately megabytes, and a buffer grown as bytes arrive would
// copy each of them again.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFrameSize {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

func writeErrorFrame(w io.Writer, err error) error {
	return writeFrame(w, frameError, []byte(err.Error()))
}

// writeRetryFrame reports an admission rejection: the query did not
// run, and the client should retry after the carried delay.
func writeRetryFrame(w io.Writer, ov *governor.OverloadedError) error {
	ms := ov.RetryAfter.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	buf := make([]byte, 4+len(ov.Reason))
	binary.LittleEndian.PutUint32(buf[:4], uint32(ms))
	copy(buf[4:], ov.Reason)
	return writeFrame(w, frameRetry, buf)
}

// decodeRetryFrame reconstructs the typed retryable error client-side,
// so callers can errors.As for *governor.OverloadedError and back off
// by its RetryAfter.
func decodeRetryFrame(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("wire: bad retry frame")
	}
	ov := &governor.OverloadedError{
		Reason:     string(payload[4:]),
		RetryAfter: time.Duration(binary.LittleEndian.Uint32(payload)) * time.Millisecond,
	}
	return fmt.Errorf("wire: server rejected query: %w", ov)
}

func writeAffectedFrame(w io.Writer, n int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	return writeFrame(w, frameAffected, b[:])
}

func writeEndFrame(w io.Writer, rows int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rows))
	return writeFrame(w, frameEnd, b[:])
}

// ----------------------------------------------------------- schema

func encodeSchema(buf *bytes.Buffer, schema catalog.Schema) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(schema)))
	buf.Write(b[:])
	for _, col := range schema {
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(col.Name)))
		buf.Write(nl[:])
		buf.WriteString(col.Name)
		buf.WriteByte(byte(col.Type))
	}
}

func decodeSchema(payload []byte) (names []string, types []vector.Type, err error) {
	if len(payload) < 4 {
		return nil, nil, malformed("truncated schema frame")
	}
	// Every column spends at least 3 bytes (name length and type), so a
	// count the payload cannot hold is rejected before it sizes a slice.
	n := binary.LittleEndian.Uint32(payload)
	if n > 1<<16 || uint64(n)*3 > uint64(len(payload)-4) {
		return nil, nil, malformed("implausible column count %d in %d bytes", n, len(payload))
	}
	off := 4
	names = make([]string, n)
	types = make([]vector.Type, n)
	for i := range names {
		if off+2 > len(payload) {
			return nil, nil, malformed("truncated schema frame")
		}
		nl := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if off+nl+1 > len(payload) {
			return nil, nil, malformed("truncated schema frame")
		}
		names[i] = string(payload[off : off+nl])
		off += nl
		t := vector.Type(payload[off])
		if t == vector.Invalid || t > vector.Blob {
			return nil, nil, malformed("column %d has invalid type byte 0x%02x", i, payload[off])
		}
		types[i] = t
		off++
	}
	return names, types, nil
}

// ----------------------------------------------------------- chunks

// encodeChunk serializes one chunk body (after the u32 row count) in
// the requested result encoding.
func encodeChunk(proto Protocol, buf *bytes.Buffer, ch *vector.Chunk) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(ch.NumRows()))
	buf.Write(b[:])
	switch proto {
	case TextRows:
		return encodeTextChunk(buf, ch)
	case BinaryRows:
		return encodeBinaryChunk(buf, ch)
	case Columnar:
		return encodeColumnarChunk(buf, ch)
	}
	return fmt.Errorf("wire: unknown protocol %d", proto)
}

// decodeChunk parses a chunk frame payload into column vectors of the
// given types.
func decodeChunk(proto Protocol, payload []byte, types []vector.Type) (*vector.Chunk, error) {
	if len(payload) < 4 {
		return nil, malformed("truncated chunk frame")
	}
	rows := binary.LittleEndian.Uint32(payload)
	body := payload[4:]
	// The row count is untrusted input: the row decoders allocate every
	// column's rows up front, so bound it by the body size first. Every
	// encoding spends at least one byte per field (text: a tab or the
	// newline; binary: the null flag; columnar: ≥1 byte per row per
	// column), so rows × columns beyond the body length is corrupt.
	// Zero-column chunks must declare zero rows.
	if rows > 0 && (len(types) == 0 || uint64(rows)*uint64(len(types)) > uint64(len(body))) {
		return nil, malformed("chunk declares %d rows of %d columns in %d payload bytes", rows, len(types), len(body))
	}
	n := int(rows)
	switch proto {
	case TextRows:
		return decodeTextChunk(body, n, types)
	case BinaryRows:
		return decodeBinaryChunk(body, n, types)
	case Columnar:
		return decodeColumnarChunk(body, n, types)
	}
	return nil, fmt.Errorf("wire: unknown protocol %d", proto)
}

// ----------------------------------------------------------- text rows

// encodeTextChunk writes the chunk row-at-a-time as tab-separated
// text with escaping — every value passes through a text conversion,
// reproducing the cost profile of the PostgreSQL wire protocol.
func encodeTextChunk(buf *bytes.Buffer, ch *vector.Chunk) error {
	n := ch.NumRows()
	for r := 0; r < n; r++ {
		for c, col := range ch.Cols() {
			if c > 0 {
				buf.WriteByte('\t')
			}
			if err := writeTextField(buf, col, r); err != nil {
				return err
			}
		}
		buf.WriteByte('\n')
	}
	return nil
}

func writeTextField(buf *bytes.Buffer, col *vector.Vector, r int) error {
	if col.IsNull(r) {
		buf.WriteString("\\N")
		return nil
	}
	// Numbers are formatted into the buffer's spare capacity, so no
	// value allocates a string.
	switch col.Type() {
	case vector.Int32:
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(col.Int32s()[r]), 10))
	case vector.Int64:
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), col.Int64s()[r], 10))
	case vector.Float64:
		buf.Write(strconv.AppendFloat(buf.AvailableBuffer(), col.Float64s()[r], 'g', -1, 64))
	case vector.Bool:
		if col.Bools()[r] {
			buf.WriteString("t")
		} else {
			buf.WriteString("f")
		}
	case vector.String:
		buf.WriteString(escapeText(col.Strings()[r]))
	case vector.Blob:
		buf.WriteString(hexEncode(col.Blobs()[r]))
	default:
		return fmt.Errorf("wire: unsupported type %v", col.Type())
	}
	return nil
}

func escapeText(s string) string {
	if !strings.ContainsAny(s, "\t\n\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t':
			b.WriteString("\\t")
		case '\n':
			b.WriteString("\\n")
		case '\\':
			b.WriteString("\\\\")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func unescapeText(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

const hexDigits = "0123456789abcdef"

func hexEncode(b []byte) string {
	out := make([]byte, 2*len(b))
	for i, v := range b {
		out[2*i] = hexDigits[v>>4]
		out[2*i+1] = hexDigits[v&0xF]
	}
	return string(out)
}

func hexDecode(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("wire: odd hex length")
	}
	out := make([]byte, len(s)/2)
	for i := range out {
		hi := strings.IndexByte(hexDigits, s[2*i])
		lo := strings.IndexByte(hexDigits, s[2*i+1])
		if hi < 0 || lo < 0 {
			return nil, fmt.Errorf("wire: bad hex byte %q", s[2*i:2*i+2])
		}
		out[i] = byte(hi<<4 | lo)
	}
	return out, nil
}

// decodeTextChunk parses the text-row body back into columns: the
// client-side conversion cost of the pg-like path. Each field is
// parsed straight into row r of its typed column; the body is copied
// to one string whose slices become the String values, so a field
// costs no allocation unless it has escapes.
func decodeTextChunk(body []byte, n int, types []vector.Type) (*vector.Chunk, error) {
	cols := zeroColumns(types, n)
	text := string(body)
	last := len(types) - 1
	r := 0
	for ; len(text) > 0; r++ {
		nl := strings.IndexByte(text, '\n')
		if nl < 0 {
			return nil, malformed("unterminated text row")
		}
		if r == n {
			return nil, malformed("chunk declared %d rows, carried more", n)
		}
		line := text[:nl]
		text = text[nl+1:]
		for i := range types {
			f := line
			if i < last {
				tab := strings.IndexByte(line, '\t')
				if tab < 0 {
					return nil, malformed("row %d has %d fields, expected %d", r, i+1, len(types))
				}
				f, line = line[:tab], line[tab+1:]
			} else if strings.IndexByte(line, '\t') >= 0 {
				return nil, malformed("row %d has more than %d fields", r, len(types))
			}
			if err := setTextField(cols[i], r, f); err != nil {
				return nil, malformed("row %d column %d: %w", r, i, err)
			}
		}
	}
	if r != n {
		return nil, malformed("chunk declared %d rows, carried %d", n, r)
	}
	return vector.NewChunk(cols...), nil
}

// setTextField parses text field f into row r of col.
func setTextField(col *vector.Vector, r int, f string) error {
	if f == "\\N" {
		col.SetNull(r)
		return nil
	}
	switch col.Type() {
	case vector.Int32:
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return err
		}
		col.Int32s()[r] = int32(v)
	case vector.Int64:
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return err
		}
		col.Int64s()[r] = v
	case vector.Float64:
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return err
		}
		col.Float64s()[r] = v
	case vector.Bool:
		col.Bools()[r] = f == "t"
	case vector.String:
		col.Strings()[r] = unescapeText(f)
	case vector.Blob:
		b, err := hexDecode(f)
		if err != nil {
			return err
		}
		col.Blobs()[r] = b
	default:
		return fmt.Errorf("unsupported type %v", col.Type())
	}
	return nil
}

// ----------------------------------------------------------- binary rows

// encodeBinaryChunk writes the chunk row-at-a-time with binary field
// encoding (mysql-like). Fields: null flag byte, then the value
// (fixed width, or u32 length + bytes). Row markers are unnecessary —
// the frame carries the row count.
func encodeBinaryChunk(buf *bytes.Buffer, ch *vector.Chunk) error {
	n := ch.NumRows()
	var b [9]byte
	for r := 0; r < n; r++ {
		for _, col := range ch.Cols() {
			if col.IsNull(r) {
				buf.WriteByte(1)
				continue
			}
			b[0] = 0
			switch col.Type() {
			case vector.Int32:
				binary.LittleEndian.PutUint32(b[1:5], uint32(col.Int32s()[r]))
				buf.Write(b[:5])
			case vector.Int64:
				binary.LittleEndian.PutUint64(b[1:9], uint64(col.Int64s()[r]))
				buf.Write(b[:9])
			case vector.Float64:
				binary.LittleEndian.PutUint64(b[1:9], math.Float64bits(col.Float64s()[r]))
				buf.Write(b[:9])
			case vector.Bool:
				b[1] = 0
				if col.Bools()[r] {
					b[1] = 1
				}
				buf.Write(b[:2])
			case vector.String:
				s := col.Strings()[r]
				binary.LittleEndian.PutUint32(b[1:5], uint32(len(s)))
				buf.Write(b[:5])
				buf.WriteString(s)
			case vector.Blob:
				blob := col.Blobs()[r]
				binary.LittleEndian.PutUint32(b[1:5], uint32(len(blob)))
				buf.Write(b[:5])
				buf.Write(blob)
			default:
				return fmt.Errorf("wire: unsupported type %v", col.Type())
			}
		}
	}
	return nil
}

// decodeBinaryChunk reads the binary-row body field by field at a
// byte offset into row r of each typed column. Every read is checked
// against the bytes left before it is made, so a hostile length costs
// an error, not an allocation.
func decodeBinaryChunk(body []byte, n int, types []vector.Type) (*vector.Chunk, error) {
	cols := zeroColumns(types, n)
	off := 0
	for r := 0; r < n; r++ {
		for i, t := range types {
			if off >= len(body) {
				return nil, malformed("truncated binary chunk at row %d", r)
			}
			switch body[off] {
			case 0:
			case 1:
				cols[i].SetNull(r)
				off++
				continue
			default:
				return nil, malformed("null flag %d at row %d column %d", body[off], r, i)
			}
			off++
			w := t.FixedWidth()
			if w == 0 {
				w = 4 // VARCHAR and BLOB start with a u32 length
			}
			if len(body)-off < w {
				return nil, malformed("truncated binary chunk at row %d", r)
			}
			field := body[off : off+w]
			off += w
			switch t {
			case vector.Int32:
				cols[i].Int32s()[r] = int32(binary.LittleEndian.Uint32(field))
			case vector.Int64:
				cols[i].Int64s()[r] = int64(binary.LittleEndian.Uint64(field))
			case vector.Float64:
				cols[i].Float64s()[r] = math.Float64frombits(binary.LittleEndian.Uint64(field))
			case vector.Bool:
				if field[0] > 1 {
					return nil, malformed("bool byte %d at row %d column %d", field[0], r, i)
				}
				cols[i].Bools()[r] = field[0] == 1
			case vector.String, vector.Blob:
				l := binary.LittleEndian.Uint32(field)
				if uint64(l) > uint64(len(body)-off) {
					return nil, malformed("field of %d bytes at row %d overruns the chunk", l, r)
				}
				v := body[off : off+int(l)]
				off += int(l)
				if t == vector.String {
					cols[i].Strings()[r] = string(v)
				} else {
					cols[i].Blobs()[r] = bytes.Clone(v)
				}
			default:
				return nil, malformed("unsupported type %v", t)
			}
		}
	}
	if off != len(body) {
		return nil, malformed("%d trailing bytes in binary chunk", len(body)-off)
	}
	return vector.NewChunk(cols...), nil
}

// ----------------------------------------------------------- columnar

// encodeColumnarChunk writes each column as a length-prefixed storage
// payload (the engine's native layout — no per-value conversion),
// encoded straight into buf's spare capacity with the length
// backfilled.
func encodeColumnarChunk(buf *bytes.Buffer, ch *vector.Chunk) error {
	for _, col := range ch.Cols() {
		b, err := storage.AppendColumn(append(buf.AvailableBuffer(), 0, 0, 0, 0), col)
		if err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
		buf.Write(b)
	}
	return nil
}

func decodeColumnarChunk(body []byte, n int, types []vector.Type) (*vector.Chunk, error) {
	cols := make([]*vector.Vector, len(types))
	off := 0
	for i, t := range types {
		if off+4 > len(body) {
			return nil, malformed("truncated columnar chunk")
		}
		l := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if l > len(body)-off {
			return nil, malformed("truncated columnar chunk")
		}
		col, err := storage.DecodeColumn(t, n, body[off:off+l])
		if err != nil {
			return nil, malformed("%w", err)
		}
		off += l
		cols[i] = col
	}
	if off != len(body) {
		return nil, malformed("%d trailing bytes in columnar chunk", len(body)-off)
	}
	return vector.NewChunk(cols...), nil
}

// zeroColumns returns one column of n zero rows per type, for the row
// decoders to fill by index.
func zeroColumns(types []vector.Type, n int) []*vector.Vector {
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		switch t {
		case vector.Bool:
			cols[i] = vector.FromBools(make([]bool, n))
		case vector.Int32:
			cols[i] = vector.FromInt32s(make([]int32, n))
		case vector.Int64:
			cols[i] = vector.FromInt64s(make([]int64, n))
		case vector.Float64:
			cols[i] = vector.FromFloat64s(make([]float64, n))
		case vector.String:
			cols[i] = vector.FromStrings(make([]string, n))
		case vector.Blob:
			cols[i] = vector.FromBlobs(make([][]byte, n))
		}
	}
	return cols
}
