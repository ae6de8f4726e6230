package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

const insertSchema = "(b BOOLEAN, i INTEGER, l BIGINT, d DOUBLE, s VARCHAR, x BLOB)"

// insertCells are the cell forms each column of insertSchema is fed:
// literals of its own type and of others (cast on the way in), NULL,
// negatives, arithmetic, CAST and scalar-UDF calls.
var insertCells = map[string][]string{
	"b": {"TRUE", "FALSE", "NULL", "1", "0", "1 = 1", "2 < 1"},
	"i": {"7", "-7", "NULL", "1+2", "CAST('12' AS INTEGER)", "2.75", "-2147483648", "TRUE"},
	"l": {"42", "-9223372036854775807", "NULL", "1+2", "-(5*3)", "abs(-4)", "CAST(4.5 AS BIGINT)", "'17'", "2147483648"},
	"d": {"1.5", "-2.25", "3", "NULL", "-0.0", "sqrt(16)", "1/3", "'2.5'", "CAST(7 AS DOUBLE)", "1e300*1e10"},
	"s": {"'abc'", "'it''s'", "''", "NULL", "42", "'a' || 'b'", "upper('xy')", "2.5", "'-'"},
	"x": {"CAST('ab' AS BLOB)", "NULL", "CAST('' AS BLOB)"},
}

var insertTypes = map[string]string{"b": "BOOLEAN", "i": "INTEGER", "l": "BIGINT", "d": "DOUBLE", "s": "VARCHAR", "x": "BLOB"}

// tableBytes is the chunk encoding of every row a table stores.
func tableBytes(t *testing.T, db *DB, name string) []byte {
	t.Helper()
	tab, err := db.cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]*vector.Vector, tab.Data.NumColumns())
	for c := range cols {
		if cols[c], err = tab.Data.Column(c); err != nil {
			t.Fatal(err)
		}
	}
	b, err := storage.AppendChunk(nil, cols)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInsertValuesMatchesSelect: rows written by INSERT … VALUES are
// stored as the same bytes as the same cells written row by row by
// INSERT … SELECT, whatever the cell (every column type, NULL,
// negatives, arithmetic, CAST, scalar UDFs, literals of another type
// than the column's) and whether the column list names every column,
// some of them, or none. A cell that cannot be inserted fails the
// statement with the error INSERT has always given for it.
func TestInsertValuesMatchesSelect(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE got "+insertSchema)
	mustExec(t, db, "CREATE TABLE want "+insertSchema)
	rng := rand.New(rand.NewSource(1))
	for _, list := range [][]string{nil, {"b", "i", "l", "d", "s", "x"}, {"s", "l", "d"}, {"x"}, {"l", "s", "l"}} {
		cols, head := list, ""
		if list == nil {
			cols = []string{"b", "i", "l", "d", "s", "x"}
		} else {
			head = " (" + strings.Join(list, ", ") + ")"
		}
		var values strings.Builder
		for r := 0; r < 300; r++ {
			cells := make([]string, len(cols))
			items := make([]string, len(cols)) // a FROM-less SELECT cannot output an untyped NULL
			for j, c := range cols {
				forms := insertCells[c]
				cells[j] = forms[rng.Intn(len(forms))]
				items[j] = cells[j]
				if cells[j] == "NULL" {
					items[j] = "CAST(NULL AS " + insertTypes[c] + ")"
				}
			}
			if r > 0 {
				values.WriteString(", ")
			}
			values.WriteString("(" + strings.Join(cells, ", ") + ")")
			mustExec(t, db, "INSERT INTO want"+head+" SELECT "+strings.Join(items, ", "))
		}
		res := mustExec(t, db, "INSERT INTO got"+head+" VALUES "+values.String())
		if res.RowsAffected != 300 {
			t.Fatalf("columns %v: %d rows affected, want 300", list, res.RowsAffected)
		}
		if got, want := tableBytes(t, db, "got"), tableBytes(t, db, "want"); !bytes.Equal(got, want) {
			t.Fatalf("columns %v: VALUES stored %d bytes that differ from INSERT … SELECT's %d", list, len(got), len(want))
		}
	}

	mustExec(t, db, "CREATE TABLE e (a BIGINT, b INTEGER, s VARCHAR)")
	for _, c := range []struct {
		stmt string   // after INSERT INTO e
		want []string // the error text, or for aggregates what it must say
	}{
		{"VALUES (a, 1, 'x')", []string{`plan: column "a" not found`}},
		{"VALUES (1, 2, e.s)", []string{`plan: column "e"."s" not found`}},
		{"VALUES (1, 2)", []string{"engine: INSERT row has 2 values, expected 3"}},
		{"VALUES (1, 2, 'x'), (1, 2, 'x', 4)", []string{"engine: INSERT row has 4 values, expected 3"}},
		{"VALUES ('abc', 2, 'x')", []string{`engine: column "a": cast row 0: cast "abc" to BIGINT: strconv.ParseInt: parsing "abc": invalid syntax`}},
		{"VALUES (1, '1.5', 'x')", []string{`engine: column "b": cast row 0: cast "1.5" to INTEGER: strconv.ParseInt: parsing "1.5": invalid syntax`}},
		{"VALUES (CAST('q' AS BIGINT), 2, 'x')", []string{`cast row 0: cast "q" to BIGINT: strconv.ParseInt: parsing "q": invalid syntax`}},
		{"VALUES (1, 'b', nofn(1))", []string{`plan: function "nofn" is not registered`}},
		{"VALUES ('abc', 2, nofn(1))", []string{`plan: function "nofn" is not registered`}},                                                                 // every cell binds before a cast fails
		{"(s, b, a) VALUES ('x', 'q', 'r')", []string{`engine: column "a": cast row 0: cast "r" to BIGINT: strconv.ParseInt: parsing "r": invalid syntax`}}, // casts fail in column order
		{"VALUES (1, 2, sqrt('x'))", []string{"UDF sqrt: sqrt: vector type VARCHAR is not numeric"}},
		{"VALUES (sum(count(*)), 2, 'x')", []string{"aggregate", "not allowed"}},
	} {
		_, err := db.Exec("INSERT INTO e " + c.stmt)
		if err == nil {
			t.Fatalf("%s: no error", c.stmt)
		}
		if len(c.want) == 1 && err.Error() != c.want[0] {
			t.Fatalf("%s: error %q, want %q", c.stmt, err, c.want[0])
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: error %q does not say %q", c.stmt, err, w)
			}
		}
	}
	if n := mustQuery(t, db, "SELECT count(*) FROM e").Cols[0].Get(0).Int64(); n != 0 {
		t.Fatalf("failed INSERTs left %d rows", n)
	}
}

// TestInsertValuesRefusesAggregates: an aggregate is not a value. A
// VALUES cell holding one, bare or inside an expression, fails the
// statement instead of inserting what it would aggregate over no rows.
func TestInsertValuesRefusesAggregates(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE e (a BIGINT, b INTEGER)")
	for _, cell := range []string{"count(*)", "max(5)", "1 + sum(2)", "CASE WHEN count(*) > 0 THEN 1 END", "abs(min(3))"} {
		_, err := db.Exec(fmt.Sprintf("INSERT INTO e VALUES (%s, 1)", cell))
		if err == nil || !strings.Contains(err.Error(), "aggregate") || !strings.Contains(err.Error(), "not allowed") {
			t.Fatalf("VALUES (%s, 1): error %v, want an aggregate refusal", cell, err)
		}
	}
	if n := mustQuery(t, db, "SELECT count(*) FROM e").Cols[0].Get(0).Int64(); n != 0 {
		t.Fatalf("refused INSERTs left %d rows", n)
	}
}

// TestInsertValuesOwnStrings: no stored VARCHAR cell points into the
// text of the statement that wrote it, which would stay alive as long
// as the row — whether the literal came in through VALUES, an UPDATE's
// SET, INSERT … SELECT or CREATE TABLE … AS.
func TestInsertValuesOwnStrings(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (s VARCHAR, n BIGINT)")
	for _, c := range []struct{ table, text, want string }{
		{"t", "INSERT INTO t VALUES ('alpha', 1), ('it''s', 2), ('', 3), (upper('x'), 4)", "[alpha it's  X]"},
		{"t", "UPDATE t SET s = 'beta' WHERE n = 2", "[alpha beta  X]"},
		{"t", "INSERT INTO t SELECT 'gamma', n + 10 FROM t WHERE n = 1", "[alpha beta  X gamma]"},
		{"u", "CREATE TABLE u AS SELECT 'delta' AS s, n FROM t WHERE n < 3", "[delta delta]"},
	} {
		mustExec(t, db, c.text)
		tab, err := db.cat.Table(c.table)
		if err != nil {
			t.Fatal(err)
		}
		col, err := tab.Data.Column(0)
		if err != nil {
			t.Fatal(err)
		}
		from := uintptr(unsafe.Pointer(unsafe.StringData(c.text)))
		for i, s := range col.Strings() {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= from && p < from+uintptr(len(c.text)) {
				t.Fatalf("%s: row %d: %q is stored inside the statement text", c.text, i, s)
			}
		}
		if got := fmt.Sprint(col.Strings()); got != c.want {
			t.Fatalf("%s: stored %s, want %s", c.text, got, c.want)
		}
	}
}

// TestInsertValuesAllocs bounds what a 1 000-row literal INSERT
// allocates, parse included: two per cell (the literal node and its
// bound constant), one per string cell (the bound value's own bytes)
// and a few per statement. Binding a cell as a one-row SELECT made ~96 000.
func TestInsertValuesAllocs(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE ingest (id BIGINT, k BIGINT, val BIGINT, note VARCHAR)")
	var b strings.Builder
	b.WriteString("INSERT INTO ingest VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d, %d, 'note-%03d')", i, i%16, i%100, i%1000)
	}
	text := b.String()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := db.Exec(text); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 10_000
	t.Logf("%.0f allocations per 1000-row INSERT", allocs)
	if allocs > ceiling {
		t.Fatalf("a 1000-row, 4-column literal INSERT made %.0f allocations, want at most %d", allocs, ceiling)
	}
}
