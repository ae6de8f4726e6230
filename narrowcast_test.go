package vexdb

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vexdb/internal/difftest"
	"vexdb/internal/vector"
)

// TestNarrowingCastsFailOutOfRange: a narrowing numeric cast whose value
// the target type cannot hold — a BIGINT past INTEGER, a DOUBLE that is
// NaN, infinite or past the target once truncated — fails with "out of
// range" wherever it runs: CAST, INSERT, UPDATE and ImportCSV. An
// in-range DOUBLE still truncates toward zero. Integer + - * whose
// result leaves its type — INTEGER past int32, BIGINT past int64 — fails
// the same way instead of wrapping. A refused INSERT or UPDATE logs
// nothing. A narrowing-cast or integer-arithmetic conjunct over a join
// stays above it (plan.MayFail), so rows the join drops never reach it,
// at every point of difftest.Matrix.
func TestNarrowingCastsFailOutOfRange(t *testing.T) {
	wantOutOfRange := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: error %v, want out of range", what, err)
		}
	}
	mem := Open()
	for _, q := range []string{
		"SELECT CAST(3000000000 AS INTEGER)",
		"SELECT CAST(-2147483649 AS INTEGER)",
		"SELECT CAST(2147483648.0 AS INTEGER)",
		"SELECT CAST(1e30 AS BIGINT)",
		"SELECT CAST(9223372036854775808.0 AS BIGINT)",
		"SELECT CAST(CAST('NaN' AS DOUBLE) AS BIGINT)",
		"SELECT CAST(CAST('NaN' AS DOUBLE) AS INTEGER)",
		"SELECT CAST(CAST('-Inf' AS DOUBLE) AS INTEGER)",
		"SELECT 9223372036854775807 + 1",
		"SELECT -9223372036854775807 - 2",
		"SELECT 4294967296 * 4294967296",
		"SELECT -4294967296 * 2147483649",
		"SELECT 3037000500 * -3037000500",
	} {
		_, err := mem.Query(q)
		wantOutOfRange(q, err)
	}
	big, err := mem.Query("SELECT 3000000000 * -3000000000 AS p, 3 * -3000000000 AS q, -3000000000 * 3 AS r, 9223372036854775807 - 1 AS s")
	if err != nil {
		t.Fatal(err)
	}
	if got := difftest.Fingerprint(big); !slices.Equal(got[1:], []string{"-9000000000000000000|-9000000000|-9000000000|9223372036854775806|"}) {
		t.Errorf("in-range BIGINT arithmetic: %q", got)
	}
	if _, err := mem.ExecScript(`CREATE TABLE ints (a INTEGER, b INTEGER);
		INSERT INTO ints VALUES (2147483647, 1), (-2147483648, 1), (65536, 16384)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT a + b FROM ints",
		"SELECT b - a FROM ints",
		"SELECT a * a FROM ints WHERE a = 65536",
		"SELECT a * a FROM ints WHERE a < 0",
	} {
		_, err := mem.Query(q)
		wantOutOfRange(q, err)
	}
	arith, err := mem.Query("SELECT a - b AS d, a * b AS p FROM ints WHERE a > 0 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if got := difftest.Fingerprint(arith); !slices.Equal(got[1:], []string{"49152|1073741824|", "2147483646|2147483647|"}) {
		t.Errorf("in-range arithmetic: %q", got)
	}
	in, err := mem.Query("SELECT CAST(2147483647.9 AS INTEGER) AS a, CAST(-2.7 AS BIGINT) AS b, " +
		"CAST(-2147483648 AS INTEGER) AS c, CAST(-9223372036854775808.0 AS BIGINT) AS d")
	if err != nil {
		t.Fatal(err)
	}
	if got := difftest.Fingerprint(in); !slices.Equal(got[1:], []string{"2147483647|-2|-2147483648|-9223372036854775808|"}) {
		t.Errorf("in-range casts: %q", got)
	}

	dir := t.TempDir()
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecScript(`CREATE TABLE t (a INTEGER, b BIGINT);
		INSERT INTO t VALUES (1, 1), (2, 3000000000)`); err != nil {
		t.Fatal(err)
	}
	before, size := tableFingerprints(t, db), db.Engine().WALSize()
	for _, q := range []string{
		"INSERT INTO t VALUES (3000000000, 0)",
		"INSERT INTO t (a) SELECT b FROM t",
		"UPDATE t SET a = 4000000000",
		"UPDATE t SET a = b WHERE b > 1",
		"UPDATE t SET b = 1e30",
	} {
		_, err := db.Exec(q)
		wantOutOfRange(q, err)
	}
	csv := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(csv, []byte("a,b\n5,5\n3000000000,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = db.ImportCSV("t", csv)
	wantOutOfRange("ImportCSV", err)
	if grown := db.Engine().WALSize() - size; grown != 0 {
		t.Errorf("the refused writes logged %d bytes", grown)
	}
	sameTables(t, "live", tableFingerprints(t, db), before)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sameTables(t, "reopened", tableFingerprints(t, re), before)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// big's rows that keys does not hold carry a BIGINT past INTEGER and
	// a NaN: cast below the join, they would fail the statement.
	j := Open()
	if _, err := j.ExecScript(`CREATE TABLE big (id INTEGER, v BIGINT, d DOUBLE);
		CREATE TABLE keys (id INTEGER)`); err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	ids, vs, ds, keys := make([]int32, rows), make([]int64, rows), make([]float64, rows), []int32{}
	for i := range rows {
		ids[i], vs[i], ds[i] = int32(i), int64(i), float64(i)+0.5
		if i%7 == 0 {
			keys = append(keys, int32(i))
		} else {
			vs[i], ds[i] = 5_000_000_000, math.NaN()
		}
	}
	if err := j.Engine().AppendChunk("big", vector.NewChunk(NewVectorInt32(ids), NewVectorInt64(vs), NewVectorFloat64(ds))); err != nil {
		t.Fatal(err)
	}
	if err := j.Engine().AppendChunk("keys", vector.NewChunk(NewVectorInt32(keys))); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT big.id, keys.id AS k FROM big JOIN keys ON big.id = keys.id WHERE CAST(big.v AS INTEGER) >= 0 ORDER BY big.id",
		"SELECT big.id, keys.id AS k FROM keys JOIN big ON big.id = keys.id WHERE CAST(big.d AS BIGINT) >= 0 ORDER BY big.id",
		"SELECT big.id, keys.id AS k FROM big JOIN keys ON big.id = keys.id WHERE big.v * big.v + 9223372036829795000 >= 0 ORDER BY big.id",
	} {
		tab := difftest.Matrix(t, q, 64<<10, func(p difftest.Point) (*Table, error) {
			tab, _, err := queryAt(j, p, q)
			return tab, err
		})
		if tab.NumRows() != len(keys) {
			t.Errorf("%s: %d rows, want %d", q, tab.NumRows(), len(keys))
		}
	}
}
