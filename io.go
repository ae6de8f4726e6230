package vexdb

import (
	"fmt"
	"os"

	"vexdb/internal/fileformat/csvio"
	"vexdb/internal/frame"
	"vexdb/internal/vector"
)

// ImportCSV bulk-loads a headered CSV file into an existing table.
// The file's columns must match the table's schema in order; numeric
// and string column types are supported (BOOLEAN and BLOB columns
// cannot be imported from CSV). The rows are written like one INSERT:
// logged, and recovered after a crash. It returns the number of rows
// loaded.
func (db *DB) ImportCSV(table, path string) (int64, error) {
	tab, err := db.eng.Catalog().Table(table)
	if err != nil {
		return 0, err
	}
	types := make([]csvio.ColType, len(tab.Schema))
	for i, col := range tab.Schema {
		switch col.Type {
		case Int32, Int64:
			types[i] = csvio.Int
		case Float64:
			types[i] = csvio.Float
		case String:
			types[i] = csvio.Str
		default:
			return 0, fmt.Errorf("vexdb: column %q: cannot import %s from CSV", col.Name, col.Type)
		}
	}
	df, err := csvio.ReadFile(path, types)
	if err != nil {
		return 0, err
	}
	cols := make([]*Vector, len(df.Cols))
	for i := range df.Cols {
		c := &df.Cols[i]
		switch c.Kind {
		case frame.Int:
			// An INTEGER column takes the cast INSERT applies, which
			// refuses a value past its range.
			if cols[i], err = vector.FromInt64s(c.Ints).Cast(tab.Schema[i].Type); err != nil {
				return 0, fmt.Errorf("vexdb: column %q: %w", tab.Schema[i].Name, err)
			}
		case frame.Float:
			cols[i] = vector.FromFloat64s(c.Floats)
		default:
			cols[i] = vector.FromStrings(c.Strs)
		}
	}
	if err := db.eng.AppendChunk(table, vector.NewChunk(cols...)); err != nil {
		return 0, err
	}
	return int64(df.NumRows()), nil
}

// ExportCSV writes a query's result to a headered CSV file. BOOLEAN
// and BLOB result columns are not supported.
func (db *DB) ExportCSV(query, path string) (int64, error) {
	tab, err := db.Query(query)
	if err != nil {
		return 0, err
	}
	cols := make([]frame.Column, tab.NumCols())
	for i, c := range tab.Cols {
		switch c.Type() {
		case Int64:
			cols[i] = frame.IntCol(tab.Names[i], c.Int64s())
		case Int32:
			wide := make([]int64, c.Len())
			for j, x := range c.Int32s() {
				wide[j] = int64(x)
			}
			cols[i] = frame.IntCol(tab.Names[i], wide)
		case Float64:
			cols[i] = frame.FloatCol(tab.Names[i], c.Float64s())
		case String:
			cols[i] = frame.StrCol(tab.Names[i], c.Strings())
		default:
			return 0, fmt.Errorf("vexdb: column %q: cannot export %s to CSV", tab.Names[i], c.Type())
		}
	}
	df, err := frame.New(cols...)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := csvio.WriteFrame(f, df); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return int64(df.NumRows()), nil
}
