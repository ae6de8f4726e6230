package csvio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"vexdb/internal/frame"
)

func sample(t *testing.T) *frame.DataFrame {
	t.Helper()
	df, err := frame.New(
		frame.IntCol("id", []int64{1, -2, 3}),
		frame.FloatCol("v", []float64{1.5, 0, -2.25}),
		frame.StrCol("s", []string{"a", "hello world", ""}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestRoundTrip(t *testing.T) {
	df := sample(t)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, df); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, []ColType{Int, Float, Str})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if got.Col("id").Ints[1] != -2 || got.Col("v").Floats[2] != -2.25 || got.Col("s").Strs[1] != "hello world" {
		t.Fatalf("contents wrong: %+v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	df := sample(t)
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := WriteFile(path, df); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, []ColType{Int, Float, Str})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.Col("id").Ints[0] != 1 {
		t.Fatal("file round trip")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadFrame(strings.NewReader("a,b\n1\n"), []ColType{Int, Int}); err == nil {
		t.Error("short row should fail")
	}
	if _, err := ReadFrame(strings.NewReader("a\nx\n"), []ColType{Int}); err == nil {
		t.Error("bad int should fail")
	}
	if _, err := ReadFrame(strings.NewReader("a\n1.x\n"), []ColType{Float}); err == nil {
		t.Error("bad float should fail")
	}
	if _, err := ReadFrame(strings.NewReader("a,b\n"), []ColType{Int}); err == nil {
		t.Error("type count mismatch should fail")
	}
}

func TestCRLFAndNoTrailingNewline(t *testing.T) {
	got, err := ReadFrame(strings.NewReader("a,b\r\n1,2\r\n3,4"), []ColType{Int, Int})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Col("b").Ints[1] != 4 {
		t.Fatalf("crlf parse: %+v", got)
	}
}

func TestParseIntEdge(t *testing.T) {
	if _, err := parseInt([]byte("")); err == nil {
		t.Error("empty")
	}
	if _, err := parseInt([]byte("-")); err == nil {
		t.Error("bare minus")
	}
	v, err := parseInt([]byte("-9007199254740993"))
	if err != nil || v != -9007199254740993 {
		t.Errorf("large negative: %d %v", v, err)
	}
}

// A line longer than the reader's 1 MiB buffer is assembled across
// reads, and the lines around it still parse from the buffer.
func TestLineLongerThanBuffer(t *testing.T) {
	long := strings.Repeat("x", 3<<20/2)
	in := "id,s\n1,a\n2," + long + "\n3,c"
	got, err := ReadFrame(strings.NewReader(in), []ColType{Int, Str})
	if err != nil {
		t.Fatal(err)
	}
	s := got.Col("s").Strs
	if got.NumRows() != 3 || got.Col("id").Ints[2] != 3 || s[0] != "a" || s[1] != long || s[2] != "c" {
		t.Fatalf("rows %d, lengths %d/%d/%d", got.NumRows(), len(s[0]), len(s[1]), len(s[2]))
	}
}

// Reading allocates per column, not per line: the line is read in
// place and one fields slice serves every line.
func TestReadDoesNotAllocatePerLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b,c,d,e,f,g,h\n")
	const lines = 2000
	for i := 0; i < lines; i++ {
		sb.WriteString("1,2,3,4,5,6,7,8\n")
	}
	in := sb.String()
	types := []ColType{Int, Int, Int, Int, Int, Int, Int, Int}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadFrame(strings.NewReader(in), types); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > lines/10 {
		t.Fatalf("%.0f allocations for %d lines", allocs, lines)
	}
}
