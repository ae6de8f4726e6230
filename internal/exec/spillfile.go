package exec

import (
	"errors"
	"fmt"
	"sync"

	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// spillBuf is one partition's stream of spilled rows of one layout: the
// rows buffered in memory and the refs of the chunks already written.
type spillBuf struct {
	cols []*vector.Vector
	refs []spill.ChunkRef
}

func (b *spillBuf) rows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// add appends rows to the buffer, which takes its layout from the first
// rows it is given.
func (b *spillBuf) add(cols []*vector.Vector) {
	if b.cols == nil {
		b.cols = make([]*vector.Vector, len(cols))
		for i, c := range cols {
			b.cols[i] = vector.New(c.Type(), c.Len())
		}
	}
	for i, c := range cols {
		b.cols[i].AppendVector(c)
	}
}

// spillFile is the file every partition of one partitioning pass
// appends its chunks to (file creation dominates spill cost on most
// filesystems); the refs in each partition's spillBuf make the
// partitions independently readable via positioned reads. The file is
// created on the first write. Writers may be concurrent; the caller
// serializes access to each spillBuf.
type spillFile struct {
	ctx   *Context
	label string
	mu    sync.Mutex
	file  *spill.File
}

// write appends rows to one partition's buffer and flushes it once a
// chunk's worth accumulated.
func (f *spillFile) write(b *spillBuf, cols []*vector.Vector) error {
	b.add(cols)
	if b.rows() < vector.DefaultChunkSize {
		return nil
	}
	return f.flush(b)
}

// flush writes one partition's buffered rows as a chunk.
func (f *spillFile) flush(b *spillBuf) error {
	if b.rows() == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.file == nil {
		file, err := f.ctx.spillManager().Create(f.label)
		if err != nil {
			return err
		}
		f.file = file
	}
	ref, err := f.file.WriteChunkRef(b.cols)
	if err != nil {
		return err
	}
	b.refs = append(b.refs, ref)
	b.cols = nil
	return nil
}

// read returns one chunk, verified against the layout that wrote it.
func (f *spillFile) read(ref spill.ChunkRef, types []vector.Type, nullable int) ([]*vector.Vector, error) {
	cols, err := f.file.ReadChunkAt(ref)
	if err != nil {
		return nil, err
	}
	return cols, checkSpilled(cols, types, nullable)
}

// release removes the file once every partition is processed.
func (f *spillFile) release() {
	if f.file != nil {
		f.file.Release()
		f.file = nil
	}
}

// errCorruptSpill marks spill chunks that do not have the layout their
// writer gave them: a reader never trusts the bytes it reads back.
var errCorruptSpill = errors.New("exec: corrupt spill chunk")

// checkSpilled verifies that a chunk read back from a spill file has
// the column count, types and equal lengths of the layout that wrote
// it, and no NULL past the first nullable columns.
func checkSpilled(cols []*vector.Vector, types []vector.Type, nullable int) error {
	if len(cols) != len(types) {
		return fmt.Errorf("%w: %d columns, want %d", errCorruptSpill, len(cols), len(types))
	}
	for i, c := range cols {
		if c.Type() != types[i] || c.Len() != cols[0].Len() {
			return fmt.Errorf("%w: column %d is %s[%d], want %s[%d]", errCorruptSpill, i, c.Type(), c.Len(), types[i], cols[0].Len())
		}
		if i >= nullable && c.Nulls() != nil {
			return fmt.Errorf("%w: NULL in column %d", errCorruptSpill, i)
		}
	}
	return nil
}
