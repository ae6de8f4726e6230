// Package csvio is the optimized CSV reader/writer used by the CSV
// baseline of the voter-classification benchmark (Figure 1). The
// reader is a hand-rolled byte scanner: it avoids encoding/csv's
// per-record allocations and parses integers and floats directly from
// the byte buffer, mirroring the "optimized parser" the paper credits
// its CSV baseline with.
package csvio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"

	"vexdb/internal/frame"
)

// ColType declares a column's parse type.
type ColType uint8

// Column parse types.
const (
	Int ColType = iota
	Float
	Str
)

// WriteFrame writes the dataframe as CSV with a header row.
func WriteFrame(w io.Writer, df *frame.DataFrame) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for i, c := range df.Cols {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(c.Name); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	n := df.NumRows()
	buf := make([]byte, 0, 32)
	for r := 0; r < n; r++ {
		for i := range df.Cols {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			c := &df.Cols[i]
			buf = buf[:0]
			switch c.Kind {
			case frame.Int:
				buf = strconv.AppendInt(buf, c.Ints[r], 10)
			case frame.Float:
				buf = strconv.AppendFloat(buf, c.Floats[r], 'g', -1, 64)
			default:
				buf = append(buf, c.Strs[r]...)
			}
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the dataframe to a CSV file.
func WriteFile(path string, df *frame.DataFrame) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFrame(f, df); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFrame parses CSV with a header row into a dataframe, using the
// declared column types (which must match the header's column count).
func ReadFrame(r io.Reader, types []ColType) (*frame.DataFrame, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var long []byte
	header, err := readLine(br, &long)
	if err != nil {
		return nil, fmt.Errorf("csvio: read header: %w", err)
	}
	names := splitComma(nil, header)
	if len(names) != len(types) {
		return nil, fmt.Errorf("csvio: %d header columns, %d declared types", len(names), len(types))
	}
	cols := make([]frame.Column, len(names))
	for i, n := range names {
		cols[i].Name = string(n)
		switch types[i] {
		case Int:
			cols[i].Kind = frame.Int
		case Float:
			cols[i].Kind = frame.Float
		default:
			cols[i].Kind = frame.Str
		}
	}
	// One fields slice serves every line; the fields alias the line,
	// which aliases the reader's buffer until the next read.
	var fields [][]byte
	lineNo := 1
	for {
		line, err := readLine(br, &long)
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		lineNo++
		if len(line) == 0 {
			if err == io.EOF {
				break
			}
			continue
		}
		fields = splitComma(fields, line)
		if len(fields) != len(cols) {
			return nil, fmt.Errorf("csvio: line %d has %d fields, expected %d", lineNo, len(fields), len(cols))
		}
		for i, f := range fields {
			switch types[i] {
			case Int:
				v, perr := parseInt(f)
				if perr != nil {
					return nil, fmt.Errorf("csvio: line %d column %d: %w", lineNo, i+1, perr)
				}
				cols[i].Ints = append(cols[i].Ints, v)
			case Float:
				v, perr := strconv.ParseFloat(string(f), 64)
				if perr != nil {
					return nil, fmt.Errorf("csvio: line %d column %d: %w", lineNo, i+1, perr)
				}
				cols[i].Floats = append(cols[i].Floats, v)
			default:
				cols[i].Strs = append(cols[i].Strs, string(f))
			}
		}
		if err == io.EOF {
			break
		}
	}
	return frame.New(cols...)
}

// ReadFile reads a typed CSV file into a dataframe.
func ReadFile(path string, types []ColType) (*frame.DataFrame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrame(f, types)
}

// readLine reads one line without the trailing newline (handles \r\n).
// The line aliases the reader's buffer and is valid until the next
// read; a line longer than the buffer is assembled in *long instead.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := append((*long)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			buf = append(buf, line...)
		}
		*long = buf
		line = buf
	}
	if len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, err
}

// splitComma splits on ',' without quote handling (the generated
// datasets never contain embedded commas; this is the "optimized
// parser" fast path), reusing out's storage for the fields.
func splitComma(out [][]byte, line []byte) [][]byte {
	out = out[:0]
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == ',' {
			out = append(out, line[start:i])
			start = i + 1
		}
	}
	return append(out, line[start:])
}

// parseInt parses a decimal int64 directly from bytes.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty integer field")
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i++
		if len(b) == 1 {
			return 0, fmt.Errorf("bad integer %q", b)
		}
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad integer %q", b)
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}
