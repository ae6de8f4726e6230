package wire

// The boxed row-protocol codecs that the typed decoders replaced, kept
// verbatim (renamed) as the oracle for TestTypedDecodersMatchReference:
// every field is boxed into a vector.Value and appended, the text path
// splits per-row string copies, the binary path reads through a
// bytes.Reader, and the text encoder formats numbers through strings.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vexdb/internal/engine"
	"vexdb/internal/vector"
)

func refNewColumns(types []vector.Type, n int) []*vector.Vector {
	cols := make([]*vector.Vector, len(types))
	for i, t := range types {
		cols[i] = vector.New(t, n)
	}
	return cols
}

func refEncodeTextChunk(buf *bytes.Buffer, ch *vector.Chunk) error {
	n := ch.NumRows()
	for r := 0; r < n; r++ {
		for c, col := range ch.Cols() {
			if c > 0 {
				buf.WriteByte('\t')
			}
			if err := refWriteTextField(buf, col, r); err != nil {
				return err
			}
		}
		buf.WriteByte('\n')
	}
	return nil
}

func refWriteTextField(buf *bytes.Buffer, col *vector.Vector, r int) error {
	if col.IsNull(r) {
		buf.WriteString("\\N")
		return nil
	}
	switch col.Type() {
	case vector.Int32:
		buf.WriteString(strconv.FormatInt(int64(col.Int32s()[r]), 10))
	case vector.Int64:
		buf.WriteString(strconv.FormatInt(col.Int64s()[r], 10))
	case vector.Float64:
		buf.WriteString(strconv.FormatFloat(col.Float64s()[r], 'g', -1, 64))
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

func refUnescapeText(s string) string {
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

func refDecodeTextChunk(body []byte, n int, types []vector.Type) (*vector.Chunk, error) {
	cols := refNewColumns(types, n)
	rows := 0
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("wire: unterminated text row")
		}
		line := string(body[:nl])
		body = body[nl+1:]
		fields := strings.Split(line, "\t")
		if len(fields) != len(cols) {
			return nil, fmt.Errorf("wire: row has %d fields, expected %d", len(fields), len(cols))
		}
		for i, f := range fields {
			if err := refAppendTextField(cols[i], types[i], f); err != nil {
				return nil, err
			}
		}
		rows++
	}
	if rows != n {
		return nil, fmt.Errorf("wire: chunk declared %d rows, carried %d", n, rows)
	}
	return vector.NewChunk(cols...), nil
}

func refAppendTextField(col *vector.Vector, t vector.Type, f string) error {
	if f == "\\N" {
		col.AppendValue(vector.Null())
		return nil
	}
	switch t {
	case vector.Int32:
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return fmt.Errorf("wire: parse int %q: %w", f, err)
		}
		col.AppendValue(vector.NewInt32(int32(v)))
	case vector.Int64:
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return fmt.Errorf("wire: parse bigint %q: %w", f, err)
		}
		col.AppendValue(vector.NewInt64(v))
	case vector.Float64:
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("wire: parse double %q: %w", f, err)
		}
		col.AppendValue(vector.NewFloat64(v))
	case vector.Bool:
		col.AppendValue(vector.NewBool(f == "t"))
	case vector.String:
		col.AppendValue(vector.NewString(refUnescapeText(f)))
	case vector.Blob:
		b, err := hexDecode(f)
		if err != nil {
			return err
		}
		col.AppendValue(vector.NewBlob(b))
	default:
		return fmt.Errorf("wire: unsupported type %v", t)
	}
	return nil
}

func refDecodeBinaryChunk(body []byte, n int, types []vector.Type) (*vector.Chunk, error) {
	cols := refNewColumns(types, n)
	r := bytes.NewReader(body)
	var buf [8]byte
	for row := 0; row < n; row++ {
		for i, t := range types {
			nullFlag, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("wire: truncated binary chunk: %w", err)
			}
			if nullFlag == 1 {
				cols[i].AppendValue(vector.Null())
				continue
			}
			switch t {
			case vector.Int32:
				if _, err := io.ReadFull(r, buf[:4]); err != nil {
					return nil, err
				}
				cols[i].AppendValue(vector.NewInt32(int32(binary.LittleEndian.Uint32(buf[:4]))))
			case vector.Int64:
				if _, err := io.ReadFull(r, buf[:8]); err != nil {
					return nil, err
				}
				cols[i].AppendValue(vector.NewInt64(int64(binary.LittleEndian.Uint64(buf[:8]))))
			case vector.Float64:
				if _, err := io.ReadFull(r, buf[:8]); err != nil {
					return nil, err
				}
				cols[i].AppendValue(vector.NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))))
			case vector.Bool:
				b, err := r.ReadByte()
				if err != nil {
					return nil, err
				}
				cols[i].AppendValue(vector.NewBool(b == 1))
			case vector.String:
				if _, err := io.ReadFull(r, buf[:4]); err != nil {
					return nil, err
				}
				sb := make([]byte, binary.LittleEndian.Uint32(buf[:4]))
				if _, err := io.ReadFull(r, sb); err != nil {
					return nil, err
				}
				cols[i].AppendValue(vector.NewString(string(sb)))
			case vector.Blob:
				if _, err := io.ReadFull(r, buf[:4]); err != nil {
					return nil, err
				}
				bb := make([]byte, binary.LittleEndian.Uint32(buf[:4]))
				if _, err := io.ReadFull(r, bb); err != nil {
					return nil, err
				}
				cols[i].AppendValue(vector.NewBlob(bb))
			default:
				return nil, fmt.Errorf("wire: unsupported type %v", t)
			}
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in binary chunk", r.Len())
	}
	return vector.NewChunk(cols...), nil
}

func refRowIterate(db *engine.DB, sql string) (*vector.Table, error) {
	rs, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	if !rs.HasRows() {
		return nil, errors.New("wire: statement returned no rows")
	}
	schema := rs.Schema()
	cols := make([]*vector.Vector, len(schema))
	for i, c := range schema {
		cols[i] = vector.New(c.Type, 0)
	}
	for {
		ch, err := rs.Next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		n := ch.NumRows()
		for r := 0; r < n; r++ {
			// One boxed Value per field per row, as a row-cursor API
			// (sqlite3_column_*) would force.
			for i, c := range ch.Cols() {
				cols[i].AppendValue(c.Get(r))
			}
		}
	}
	return vector.NewTable(schema.Names(), cols)
}
