package engine

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// sealFixture is a table of rows rows over every sealed type: INTEGER
// with NULLs in its first segment only (raw there, FOR after), a wide
// BIGINT, a DOUBLE with NaNs and NULLs, a VARCHAR of a few short values
// (dict) with a long one every 500th row (no zone bounds there), and a
// BOOLEAN with NULLs.
func sealFixture(t *testing.T, rows int) *vector.Table {
	t.Helper()
	i32, i64 := vector.New(vector.Int32, rows), vector.New(vector.Int64, rows)
	f64, str, boo := vector.New(vector.Float64, rows), vector.New(vector.String, rows), vector.New(vector.Bool, rows)
	for i := range rows {
		if i < storage.SegmentRows && i%97 == 0 {
			i32.AppendValue(vector.Null())
		} else {
			i32.AppendValue(vector.NewInt32(int32(i % 1000)))
		}
		i64.AppendValue(vector.NewInt64(int64(i) * int64(i) * 7919))
		switch {
		case i%103 == 0:
			f64.AppendValue(vector.Null())
		case i%101 == 0:
			f64.AppendValue(vector.NewFloat64(math.NaN()))
		default:
			f64.AppendValue(vector.NewFloat64(float64(i) / 7))
		}
		if i%500 == 0 {
			str.AppendValue(vector.NewString(strings.Repeat("long", 30)))
		} else {
			str.AppendValue(vector.NewString(string(rune('a' + i%26))))
		}
		if i%211 == 0 {
			boo.AppendValue(vector.Null())
		} else {
			boo.AppendValue(vector.NewBool(i%3 == 0))
		}
	}
	tab, err := vector.NewTable([]string{"i", "l", "d", "s", "b"}, []*vector.Vector{i32, i64, f64, str, boo})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSealIsWidthIndependent: a table written at seal widths 1, 2 and
// 8 — by CreateTableFrom at the database's default width, then by a
// whole-table UPDATE at its session's — saves to the same bytes: every
// segment's encodings, zone maps and sketches are its rows' alone.
func TestSealIsWidthIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // widths clamp to GOMAXPROCS
	data := sealFixture(t, 9*storage.SegmentRows+123)
	image := func(db *DB) []byte {
		t.Helper()
		tab, err := db.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "t.vxtb")
		if err := storage.SaveTableFile(path, tab.Schema.Names(), tab.Data); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var want [2][]byte // created, updated
	for _, w := range []int{1, 2, 8} {
		db := New()
		db.Parallelism = w
		if err := db.CreateTableFrom("t", data); err != nil {
			t.Fatal(err)
		}
		created := image(db)
		sess := db.NewSession()
		sess.Settings.Workers = w
		if _, err := db.ExecSession(sess, "UPDATE t SET i = i + 1, l = l - 1, d = d * 2, s = s || 'x', b = NOT b"); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		updated := image(db)
		if bytes.Equal(created, updated) {
			t.Fatal("the UPDATE left the table's image as it was")
		}
		if w == 1 {
			want = [2][]byte{created, updated}
			continue
		}
		if !bytes.Equal(created, want[0]) {
			t.Errorf("width %d: CreateTableFrom image differs from width 1's", w)
		}
		if !bytes.Equal(updated, want[1]) {
			t.Errorf("width %d: UPDATE image differs from width 1's", w)
		}
	}
}
