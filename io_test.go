package vexdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestImportExportCSV(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(src, []byte("id,score,name\n1,2.5,alice\n2,7.25,bob\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, score DOUBLE, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	n, err := db.ImportCSV("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("imported %d rows", n)
	}
	tab, err := db.Query("SELECT name FROM t WHERE score > 3")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 || tab.Column("name").Get(0).Str() != "bob" {
		t.Fatal("imported data wrong")
	}

	out := filepath.Join(dir, "out.csv")
	m, err := db.ExportCSV("SELECT id, score FROM t ORDER BY id DESC", out)
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("exported %d rows", m)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := "id,score\n2,7.25\n1,2.5\n"
	if string(data) != want {
		t.Fatalf("export = %q, want %q", data, want)
	}
}

func TestImportCSVInt32Column(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(src, []byte("a\n7\n-3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportCSV("t", src); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Query("SELECT sum(a) AS s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("s").Get(0).Int64() != 4 {
		t.Fatal("int32 import")
	}
}

// Imported rows are logged in table order: a later DELETE or UPDATE
// names rows by their position, so replay must see the import too.
func TestImportCSVDurable(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.csv")
	var csv strings.Builder
	csv.WriteString("id,name\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&csv, "%d,row-%d\n", i, i)
	}
	if err := os.WriteFile(src, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	db, err := OpenDurable(Options{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id BIGINT, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportCSV("t", src); err != nil {
		t.Fatal(err)
	}
	script := `
		INSERT INTO t VALUES (100, 'a'), (101, 'b'), (102, 'c'), (103, 'd'), (104, 'e');
		DELETE FROM t WHERE id = 102 OR id = 40;
		UPDATE t SET name = 'updated' WHERE id = 3 OR id = 104;
	`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 103 {
		t.Fatalf("live table has %d rows, want 103", want.NumRows())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(Options{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Query("SELECT id, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cols[0].Int64s(), want.Cols[0].Int64s()) ||
		!reflect.DeepEqual(got.Cols[1].Strings(), want.Cols[1].Strings()) {
		t.Fatalf("recovered table differs from the live one:\n%v\n%v", got.Cols[0].Int64s(), want.Cols[0].Int64s())
	}
}

func TestImportErrors(t *testing.T) {
	db := Open()
	if _, err := db.ImportCSV("missing", "nope.csv"); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := db.Exec("CREATE TABLE b (raw BLOB)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportCSV("b", "nope.csv"); err == nil {
		t.Error("blob column should fail before reading")
	}
	if _, err := db.Exec("CREATE TABLE ok (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportCSV("ok", "definitely-missing.csv"); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := db.ExportCSV("SELECT raw FROM b", filepath.Join(t.TempDir(), "x.csv")); err == nil {
		t.Error("blob export should fail")
	}
	if _, err := db.ExportCSV("SELECT * FROM missing", filepath.Join(t.TempDir(), "x.csv")); err == nil {
		t.Error("bad query should fail")
	}
}
