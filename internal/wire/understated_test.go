package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vexdb/internal/engine"
	"vexdb/internal/storage"
	"vexdb/internal/vector"
)

// TestUnderstatedStatisticsOverWire: a loaded table whose zone maps
// understate a GROUP BY key's range fails that query with the typed
// error's text at every width, and the connection answers the next
// query, as after TestSelectNullOverWire's.
func TestUnderstatedStatisticsOverWire(t *testing.T) {
	const rows = 3*storage.SegmentRows + 100
	src := engine.New()
	if _, err := src.Exec("CREATE TABLE c (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO c VALUES ")
	for i := range rows {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %d)", 1000+i*7%1000, i%7)
	}
	if _, err := src.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c.vxtb")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bound := func(x uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{byte(vector.Int64)}, x) }
	if err := os.WriteFile(path, bytes.ReplaceAll(raw, bound(1999), bound(1500)), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		db := engine.New()
		db.Parallelism = workers
		if err := db.LoadDir(dir); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(db)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Query(Columnar, "SELECT k, count(*) AS n, sum(v) AS sv FROM c GROUP BY k")
		if err == nil || !strings.Contains(err.Error(), storage.ErrOutOfDomain.Error()) {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, storage.ErrOutOfDomain)
		}
		tab, err := c.Query(Columnar, "SELECT count(*) AS n FROM c")
		if err != nil {
			t.Fatal(err)
		}
		if n := tab.Column("n").Get(0).Int64(); n != rows {
			t.Fatalf("workers=%d: next query: n = %d", workers, n)
		}
		c.Close()
		srv.Close()
	}
}
