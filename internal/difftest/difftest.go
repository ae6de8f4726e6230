// Package difftest holds SQL results to the engine's byte-identity
// contract: a query returns the same bytes at any worker count, memory
// budget, planner setting and delivery mode. Like net/http/httptest it
// is a non-test package for tests to import; it knows nothing of the
// engine, only of the tables a caller's run returns, so the engine's,
// the executor's and the public package's tests share it. Matrix runs
// its points concurrently on the caller's one database, each in its own
// session, so the contract is held under concurrent queries too, and a
// caller's run must be safe for concurrent use.
package difftest

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vexdb/internal/vector"
)

// Point is one setting of the knobs the contract ranges over.
type Point struct {
	Width    int   // worker count
	Budget   int64 // memory budget in bytes; 0 is unlimited
	Planner  bool  // whether the cost planner runs
	Streamed bool  // drained chunk by chunk instead of materialized
}

func (p Point) String() string {
	mode := "materialized"
	if p.Streamed {
		mode = "streamed"
	}
	return fmt.Sprintf("width=%d budget=%d planner=%v %s", p.Width, p.Budget, p.Planner, mode)
}

// Matrix runs q through run at each of its 24 points — widths 1, 2
// and 8 × budgets unlimited and tight × planner off and on ×
// materialized and streamed — and fails t with the point and the first
// differing row where a result differs in any bit from the oracle's
// (width 1, unlimited, planner off, materialized) or run fails. It
// returns the oracle's table for the caller to assert the rows it
// expects.
//
// The oracle runs first; the other 23 points then run at once, each
// on its own goroutine, so run must be safe for concurrent use: it
// reads q's result in a session of its own at the point's settings,
// never by changing state the points share. Where several points fail,
// the lowest-numbered one is reported, so a failure reads the same
// from run to run. A caller that checks more at each point (scan or
// spill counters, the plan) does so inside run and reports a failed
// check as run's error, since run is off the test's goroutine; a check
// of state the points share (a temp directory left empty) follows
// Matrix's return.
func Matrix(t testing.TB, q string, tight int64, run func(Point) (*vector.Table, error)) *vector.Table {
	t.Helper()
	var ps []Point // the oracle first
	for _, w := range []int{1, 2, 8} {
		for _, b := range []int64{0, tight} {
			for _, planner := range []bool{false, true} {
				for _, streamed := range []bool{false, true} {
					ps = append(ps, Point{Width: w, Budget: b, Planner: planner, Streamed: streamed})
				}
			}
		}
	}
	oracle, err := run(ps[0])
	if err != nil {
		t.Fatalf("%s at %v: %v", q, ps[0], err)
	}
	fails := make([]string, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := run(p); err != nil {
				fails[i+1] = err.Error()
			} else {
				fails[i+1] = Diff(got, oracle)
			}
		}()
	}
	wg.Wait()
	for i, f := range fails {
		if f != "" {
			t.Fatalf("%s at %v: %s", q, ps[i], f)
		}
	}
	return oracle
}

// Diff compares two tables bit-exactly, as Matrix does — two tables
// are the same when their Fingerprints are — and describes the first
// difference: the columns, a row, or the row count. It is "" when the
// tables are the same.
func Diff(got, want *vector.Table) string {
	if g, w := header(got), header(want); g != w {
		return fmt.Sprintf("columns %s, want %s", g, w)
	}
	n := min(got.NumRows(), want.NumRows())
	for c, col := range want.Cols {
		for r := range n {
			if !same(got.Cols[c], col, r) {
				n = r
				break
			}
		}
	}
	if n < min(got.NumRows(), want.NumRows()) {
		g, w := row(got, n), row(want, n)
		// A long row (a model BLOB) shows around its first difference.
		i := 0
		for i < min(len(g), len(w)) && g[i] == w[i] {
			i++
		}
		if from := i - 60; from > 0 {
			g, w = "…"+g[from:], "…"+w[from:]
		}
		return fmt.Sprintf("row %d of %d:\n  got  %.160s\n  want %.160s", n, want.NumRows(), g, w)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	return ""
}

// same reports whether row i of a and b, two columns of one type,
// render alike in a Fingerprint.
func same(a, b *vector.Vector, i int) bool {
	if an, bn := a.IsNull(i), b.IsNull(i); an || bn {
		return an == bn
	}
	switch a.Type() {
	case vector.Bool:
		return a.Bools()[i] == b.Bools()[i]
	case vector.Int32:
		return a.Int32s()[i] == b.Int32s()[i]
	case vector.Int64:
		return a.Int64s()[i] == b.Int64s()[i]
	case vector.Float64:
		return math.Float64bits(a.Float64s()[i]) == math.Float64bits(b.Float64s()[i])
	case vector.String:
		return a.Strings()[i] == b.Strings()[i]
	case vector.Blob:
		return bytes.Equal(a.Blobs()[i], b.Blobs()[i])
	}
	return true
}

// Fingerprint renders tab bit-exactly: first a line of its column
// names and types, then one line per row. A NULL is N, distinct from
// every value; a float is its IEEE bits, so NaN payloads and -0.0 are
// told apart; a string is quoted; a BLOB is its bytes in hex.
func Fingerprint(tab *vector.Table) []string {
	out := make([]string, 0, tab.NumRows()+1)
	out = append(out, header(tab))
	for r := range tab.NumRows() {
		out = append(out, row(tab, r))
	}
	return out
}

func header(tab *vector.Table) string {
	var sb strings.Builder
	for c, col := range tab.Cols {
		name := ""
		if c < len(tab.Names) {
			name = tab.Names[c]
		}
		fmt.Fprintf(&sb, "%q %s|", name, col.Type())
	}
	return sb.String()
}

func row(tab *vector.Table, r int) string {
	var sb strings.Builder
	for _, v := range tab.Cols {
		switch {
		case v.IsNull(r):
			sb.WriteByte('N')
		case v.Type() == vector.Bool:
			sb.WriteString(strconv.FormatBool(v.Bools()[r]))
		case v.Type() == vector.Int32:
			sb.WriteString(strconv.FormatInt(int64(v.Int32s()[r]), 10))
		case v.Type() == vector.Int64:
			sb.WriteString(strconv.FormatInt(v.Int64s()[r], 10))
		case v.Type() == vector.Float64:
			fmt.Fprintf(&sb, "%016x", math.Float64bits(v.Float64s()[r]))
		case v.Type() == vector.String:
			sb.WriteString(strconv.Quote(v.Strings()[r]))
		case v.Type() == vector.Blob:
			sb.WriteString("x'" + hex.EncodeToString(v.Blobs()[r]) + "'")
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// Collect drains a streamed result into one table of the given column
// names and types, calling next until it returns a nil chunk. Each
// chunk is kept as next returned it and joined only after the last, so
// a chunk that a later one overwrote shows as a difference. A chunk
// whose columns differ from types is an error.
func Collect(names []string, types []vector.Type, next func() (*vector.Chunk, error)) (*vector.Table, error) {
	var kept []*vector.Chunk
	for {
		ch, err := next()
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		if ch.NumCols() != len(types) {
			return nil, fmt.Errorf("difftest: a chunk of %d columns in a result of %d", ch.NumCols(), len(types))
		}
		for i, typ := range types {
			if got := ch.Col(i).Type(); got != typ {
				return nil, fmt.Errorf("difftest: a chunk's column %d is %s, the result's %s", i, got, typ)
			}
		}
		kept = append(kept, ch)
	}
	cols := make([]*vector.Vector, len(types))
	for i, typ := range types {
		cols[i] = vector.New(typ, 0)
		for _, ch := range kept {
			cols[i].AppendVector(ch.Col(i))
		}
	}
	return &vector.Table{Names: names, Cols: cols}, nil
}
