package vector

import "fmt"

// Chunk is a horizontal batch of column vectors with equal lengths.
// Chunks are the unit of data flow between execution operators.
type Chunk struct {
	cols []*Vector
}

// NewChunk builds a chunk from column vectors. All vectors must have
// the same length.
func NewChunk(cols ...*Vector) *Chunk {
	if len(cols) > 1 {
		n := cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != n {
				panic(fmt.Sprintf("NewChunk: column length mismatch %d vs %d", c.Len(), n))
			}
		}
	}
	return &Chunk{cols: cols}
}

// NumCols returns the number of columns.
func (c *Chunk) NumCols() int { return len(c.cols) }

// NumRows returns the number of rows (0 for a chunk with no columns).
func (c *Chunk) NumRows() int {
	if len(c.cols) == 0 {
		return 0
	}
	return c.cols[0].Len()
}

// Col returns column i.
func (c *Chunk) Col(i int) *Vector { return c.cols[i] }

// Cols returns the underlying column slice.
func (c *Chunk) Cols() []*Vector { return c.cols }

// Row materializes row i as a value slice.
func (c *Chunk) Row(i int) []Value {
	out := make([]Value, len(c.cols))
	for j, col := range c.cols {
		out[j] = col.Get(i)
	}
	return out
}

// Gather returns a new chunk with the rows selected by sel.
func (c *Chunk) Gather(sel []int) *Chunk {
	cols := make([]*Vector, len(c.cols))
	for i, col := range c.cols {
		cols[i] = col.Gather(sel)
	}
	return &Chunk{cols: cols}
}

// Slice returns a chunk view of rows [from, to).
func (c *Chunk) Slice(from, to int) *Chunk {
	cols := make([]*Vector, len(c.cols))
	for i, col := range c.cols {
		cols[i] = col.Slice(from, to)
	}
	return &Chunk{cols: cols}
}

// Table is a fully materialized, named, typed set of columns: the form
// in which UDFs receive and return data, and in which query results
// are surfaced. Unlike Chunk it carries column names.
type Table struct {
	Names []string
	Cols  []*Vector
}

// NewTable builds a table, validating that names and columns align and
// that all columns have equal length.
func NewTable(names []string, cols []*Vector) (*Table, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("table: %d names for %d columns", len(names), len(cols))
	}
	if len(cols) > 0 {
		n := cols[0].Len()
		for i, c := range cols[1:] {
			if c.Len() != n {
				return nil, fmt.Errorf("table: column %q length %d != %d", names[i+1], c.Len(), n)
			}
		}
	}
	return &Table{Names: names, Cols: cols}, nil
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Cols) }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, n := range t.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Column returns the named column, or nil when absent.
func (t *Table) Column(name string) *Vector {
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Cols[i]
	}
	return nil
}

// CollectTable drains next (a nil chunk ends it) into a table of the
// given column names and types. The chunks are collected first and each
// column is then sized once, so no column grows by doubling and every
// row is copied once.
func CollectTable(names []string, types []Type, next func() (*Chunk, error)) (*Table, error) {
	var chunks []*Chunk
	total := 0
	for {
		ch, err := next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		chunks = append(chunks, ch)
		total += ch.NumRows()
	}
	cols := make([]*Vector, len(types))
	for i, t := range types {
		cols[i] = New(t, total)
	}
	out, err := NewTable(names, cols)
	if err != nil {
		return nil, err
	}
	for _, ch := range chunks {
		if err := out.AppendChunk(ch); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AppendChunk appends the rows of ch to the table. Column types and
// arity must match.
func (t *Table) AppendChunk(ch *Chunk) error {
	if ch.NumCols() != len(t.Cols) {
		return fmt.Errorf("table append: %d columns, chunk has %d", len(t.Cols), ch.NumCols())
	}
	for i, col := range t.Cols {
		col.AppendVector(ch.Col(i))
	}
	return nil
}

// Chunk returns the table's columns as a single chunk (no copy).
func (t *Table) Chunk() *Chunk { return &Chunk{cols: t.Cols} }
