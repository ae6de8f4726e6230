package spill

import (
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

type countingRec struct{ wrote, read atomic.Int64 }

func (r *countingRec) SpillWrote(n int64) { r.wrote.Add(n) }
func (r *countingRec) SpillRead(n int64)  { r.read.Add(n) }

// buildMixedChunk exercises every type plus NULLs, NaN and empty
// strings — the payloads that must round-trip bit-exactly.
func buildMixedChunk(t *testing.T) []*vector.Vector {
	t.Helper()
	b := vector.New(vector.Bool, 4)
	b.AppendValue(vector.NewBool(true))
	b.AppendValue(vector.Null())
	b.AppendValue(vector.NewBool(false))
	b.AppendValue(vector.NewBool(true))
	i := vector.New(vector.Int64, 4)
	i.AppendValue(vector.NewInt64(-1 << 40))
	i.AppendValue(vector.NewInt64(42))
	i.AppendValue(vector.Null())
	i.AppendValue(vector.NewInt64(0))
	f := vector.New(vector.Float64, 4)
	f.AppendValue(vector.NewFloat64(math.NaN()))
	f.AppendValue(vector.NewFloat64(math.Inf(-1)))
	f.AppendValue(vector.NewFloat64(-0.0))
	f.AppendValue(vector.Null())
	s := vector.New(vector.String, 4)
	s.AppendValue(vector.NewString(""))
	s.AppendValue(vector.NewString("héllo"))
	s.AppendValue(vector.Null())
	s.AppendValue(vector.NewString("x"))
	bl := vector.New(vector.Blob, 4)
	bl.AppendValue(vector.NewBlob([]byte{0, 1, 2}))
	bl.AppendValue(vector.Null())
	bl.AppendValue(vector.NewBlob(nil))
	bl.AppendValue(vector.NewBlob([]byte{0xff}))
	return []*vector.Vector{b, i, f, s, bl}
}

func TestFileRoundTrip(t *testing.T) {
	rec := &countingRec{}
	m := NewManager(t.TempDir(), rec)
	defer m.Close()
	f, err := m.Create("test")
	if err != nil {
		t.Fatal(err)
	}
	cols := buildMixedChunk(t)
	var refs []ChunkRef
	for c := 0; c < 3; c++ {
		ref, err := f.WriteChunkRef(cols)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// The chunks lie back to back and account for every byte written.
	for i, ref := range refs {
		if want := int64(i) * refs[0].Len; ref.Off != want || ref.Len != refs[0].Len {
			t.Fatalf("chunk %d at %+v, want offset %d", i, ref, want)
		}
	}
	if end := refs[2].Off + refs[2].Len; f.BytesWritten() != end || rec.wrote.Load() != end {
		t.Fatalf("wrote %d bytes (%d recorded), chunks end at %d", f.BytesWritten(), rec.wrote.Load(), end)
	}
	rows := 0
	for pass := 0; pass < 2; pass++ { // re-read must work
		for c, ref := range refs {
			got, err := f.ReadChunkAt(ref)
			if err != nil {
				t.Fatalf("pass %d chunk %d: %v", pass, c, err)
			}
			if len(got) != len(cols) {
				t.Fatalf("got %d cols, want %d", len(got), len(cols))
			}
			rows += got[0].Len()
			for ci, gc := range got {
				wc := cols[ci]
				if gc.Type() != wc.Type() || gc.Len() != wc.Len() {
					t.Fatalf("col %d: type %v len %d", ci, gc.Type(), gc.Len())
				}
				for r := 0; r < wc.Len(); r++ {
					if gc.IsNull(r) != wc.IsNull(r) {
						t.Fatalf("col %d row %d null mismatch", ci, r)
					}
					if wc.IsNull(r) {
						continue
					}
					if wc.Type() == vector.Float64 {
						if math.Float64bits(gc.Float64s()[r]) != math.Float64bits(wc.Float64s()[r]) {
							t.Fatalf("col %d row %d float bits differ", ci, r)
						}
						continue
					}
					if gc.Get(r).String() != wc.Get(r).String() {
						t.Fatalf("col %d row %d: %v != %v", ci, r, gc.Get(r), wc.Get(r))
					}
				}
			}
		}
	}
	if rows != 24 {
		t.Fatalf("read %d rows in two passes, want 24", rows)
	}
	if rec.read.Load() != 2*f.BytesWritten() {
		t.Fatalf("recorder read=%d, want %d", rec.read.Load(), 2*f.BytesWritten())
	}
}

func TestManagerCleanup(t *testing.T) {
	base := t.TempDir()
	m := NewManager(base, nil)
	if m.Dir() != "" {
		t.Fatal("dir created before first file")
	}
	f1, err := m.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.WriteChunkRef([]*vector.Vector{vector.FromInt64s([]int64{1, 2})}); err != nil {
		t.Fatal(err)
	}
	dir := m.Dir()
	if dir == "" {
		t.Fatal("no spill dir")
	}
	// Release one file explicitly; leave the other for Close.
	if err := f2.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s still exists (err=%v)", dir, err)
	}
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left in temp dir", len(ents))
	}
	if _, err := m.Create("late"); err == nil {
		t.Fatal("Create after Close must fail")
	}
}

func TestZeroRowChunkSkipped(t *testing.T) {
	m := NewManager(t.TempDir(), nil)
	defer m.Close()
	f, err := m.Create("z")
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]*vector.Vector{{vector.New(vector.Int64, 0)}, nil} {
		ref, err := f.WriteChunkRef(cols)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Len != 0 {
			t.Fatalf("zero-row chunk written: %+v", ref)
		}
		if _, err := f.ReadChunkAt(ref); err == nil {
			t.Fatal("read of a dropped chunk succeeded")
		}
	}
	if f.BytesWritten() != 0 {
		t.Fatalf("zero-row chunks wrote %d bytes", f.BytesWritten())
	}
}

func TestCorruptFileRejected(t *testing.T) {
	m := NewManager(t.TempDir(), nil)
	defer m.Close()
	f, err := m.Create("c")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.WriteChunkRef([]*vector.Vector{vector.FromInt64s([]int64{7})})
	if err != nil {
		t.Fatal(err)
	}
	// Frames the writer never produces: a chunk without rows, one
	// without columns, and a ref reaching past its chunk's frame.
	frame := func(cols ...*vector.Vector) []byte {
		b, err := storage.AppendChunk(nil, cols)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, b := range map[string][]byte{
		"no rows":        frame(vector.New(vector.Int64, 0)),
		"no columns":     frame(),
		"trailing bytes": append(frame(vector.FromInt64s([]int64{7})), 0),
	} {
		if _, err := f.f.WriteAt(b, f.written); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadChunkAt(ChunkRef{Off: f.written, Len: int64(len(b))}); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
	// Truncate mid-payload: the reader must error, not return short data.
	if err := f.f.Truncate(f.written - 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadChunkAt(ref); err == nil {
		t.Fatal("truncated file: want error")
	}
	// A file whose path vanished underneath still releases cleanly.
	g, err := m.Create("gone")
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(m.Dir(), filepath.Base(g.path)))
	if err := g.Release(); err != nil {
		t.Fatal(err)
	}
}
