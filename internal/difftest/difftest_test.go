package difftest

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vexdb/internal/vector"
)

func table(name string, col *vector.Vector) *vector.Table {
	return &vector.Table{Names: []string{name}, Cols: []*vector.Vector{col}}
}

// TestFingerprintTellsApart: each pair renders the same through
// Value.String, and Fingerprint tells it apart.
func TestFingerprintTellsApart(t *testing.T) {
	null := vector.New(vector.String, 1)
	null.AppendValue(vector.Null())
	for _, c := range []struct {
		name string
		a, b *vector.Table
	}{
		{"NULL and 'NULL'", table("s", null), table("s", vector.FromStrings([]string{"NULL"}))},
		{"two NaN payloads",
			table("f", vector.FromFloat64s([]float64{math.Float64frombits(0x7ff8000000000000)})),
			table("f", vector.FromFloat64s([]float64{math.Float64frombits(0x7ff8000000000001)}))},
		{"-0.0 and 0.0", table("f", vector.FromFloat64s([]float64{math.Copysign(0, -1)})), table("f", vector.FromFloat64s([]float64{0}))},
		{"same-length BLOBs", table("b", vector.FromBlobs([][]byte{{1, 2, 3}})), table("b", vector.FromBlobs([][]byte{{1, 2, 4}}))},
		{"column names", table("a", vector.FromInt64s([]int64{7})), table("b", vector.FromInt64s([]int64{7}))},
		{"column types", table("a", vector.FromInt64s([]int64{7})), table("a", vector.FromInt32s([]int32{7}))},
		{"a string holding the separator",
			&vector.Table{Names: []string{"x", "y"}, Cols: []*vector.Vector{vector.FromStrings([]string{"a|"}), vector.FromStrings([]string{"b"})}},
			&vector.Table{Names: []string{"x", "y"}, Cols: []*vector.Vector{vector.FromStrings([]string{"a"}), vector.FromStrings([]string{"|b"})}}},
	} {
		if slices.Equal(Fingerprint(c.a), Fingerprint(c.b)) {
			t.Errorf("%s: Fingerprint sees no difference: %q", c.name, Fingerprint(c.a))
		}
		if d := Diff(c.a, c.b); d == "" {
			t.Errorf("%s: Diff sees no difference", c.name)
		}
		if d := Diff(c.a, c.a); d != "" {
			t.Errorf("%s: a table differs from itself: %s", c.name, d)
		}
	}
}

// TestMatrixRunsEveryPoint: the oracle comes first and alone, the
// other 23 points run concurrently but never more than inFlight at once
// (and that many do run at once), each is run once, and the oracle's
// table is returned.
func TestMatrixRunsEveryPoint(t *testing.T) {
	var mu sync.Mutex
	seen := map[Point]bool{}
	running, peak := 0, 0
	full := make(chan struct{}) // closed once inFlight points are in flight
	want := table("a", vector.FromInt64s([]int64{1, 2}))
	got := Matrix(t, "q", 64<<10, func(p Point) (*vector.Table, error) {
		mu.Lock()
		first, twice := len(seen) == 0, seen[p]
		seen[p] = true
		if !first {
			running++
			if peak = max(peak, running); peak == inFlight && running == inFlight {
				select {
				case <-full:
				default:
					close(full)
				}
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			if !first {
				running--
			}
			mu.Unlock()
		}()
		switch {
		case first && p != (Point{Width: 1}):
			return nil, fmt.Errorf("first point %v is not the oracle", p)
		case twice:
			return nil, fmt.Errorf("%v run twice", p)
		case !first:
			select {
			case <-full:
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("%v waited for the other points alone", p)
			}
			time.Sleep(time.Millisecond) // overlap the next points, were the bound not kept
		}
		return table("a", vector.FromInt64s([]int64{1, 2})), nil
	})
	if len(seen) != 24 || !seen[Point{8, 64 << 10, true, true}] || Diff(got, want) != "" {
		t.Fatalf("%d points run; oracle %q", len(seen), Fingerprint(got))
	}
	if peak != inFlight {
		t.Fatalf("%d points in flight at most, want %d", peak, inFlight)
	}
}

// TestMatrixNamesThePoint: a point that differs, or fails, fails the
// test with its label; of several, the lowest-numbered one (each case's
// bad point comes before the width-8 budgeted points that also differ).
func TestMatrixNamesThePoint(t *testing.T) {
	for _, c := range []struct {
		bad  Point
		want string
	}{
		{Point{Width: 2, Budget: 64 << 10, Planner: true, Streamed: true}, "row 1 of 2"},
		{Point{Width: 2}, "boom"},
	} {
		ft := &fakeT{TB: t}
		done := make(chan struct{})
		go func() {
			defer close(done)
			Matrix(ft, "q", 64<<10, func(p Point) (*vector.Table, error) {
				switch {
				case p == c.bad && c.want == "boom":
					return nil, errors.New("boom")
				case p == c.bad, p.Width == 8 && p.Budget > 0:
					return table("a", vector.FromInt64s([]int64{1, 3})), nil
				}
				return table("a", vector.FromInt64s([]int64{1, 2})), nil
			})
		}()
		<-done
		if !strings.Contains(ft.msg, c.bad.String()) || !strings.Contains(ft.msg, c.want) {
			t.Fatalf("failure message %q does not name %v and %q", ft.msg, c.bad, c.want)
		}
	}
}

// fakeT records a Fatalf and ends its goroutine, as testing.T does.
type fakeT struct {
	testing.TB
	msg string
}

func (f *fakeT) Helper() {}

func (f *fakeT) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// TestCollect: chunks append in order; a chunk of another type is an
// error, not a panic.
func TestCollect(t *testing.T) {
	chunks := []*vector.Chunk{
		vector.NewChunk(vector.FromInt64s([]int64{1, 2})),
		vector.NewChunk(vector.FromInt64s([]int64{3})),
	}
	next := func() (*vector.Chunk, error) {
		if len(chunks) == 0 {
			return nil, nil
		}
		ch := chunks[0]
		chunks = chunks[1:]
		return ch, nil
	}
	got, err := Collect([]string{"a"}, []vector.Type{vector.Int64}, next)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(got, table("a", vector.FromInt64s([]int64{1, 2, 3}))); d != "" {
		t.Fatal(d)
	}
	chunks = []*vector.Chunk{vector.NewChunk(vector.FromInt32s([]int32{1}))}
	if _, err := Collect([]string{"a"}, []vector.Type{vector.Int64}, next); err == nil {
		t.Fatal("a chunk of INTEGER in a BIGINT result collected")
	}
}
