package wire

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/engine"
	"vexdb/internal/governor"
)

// TestCancelCTASOverWire: the SELECT inside CREATE TABLE AS and INSERT
// … SELECT runs under its request's context and its connection's
// session, so a Cancel 50 ms in stops it long before nap's ~2 s over
// big, writes nothing, leaks no lease, and leaves the connection
// usable.
func TestCancelCTASOverWire(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	db, srv, addr := govServer(t, 400_000, 2, governor.Config{MaxActive: 4},
		func(db *engine.DB) { registerNap(t, db, 5*time.Microsecond, &calls) })
	if _, err := db.Exec("CREATE TABLE y (id BIGINT)"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	for _, stmt := range []string{
		"CREATE TABLE x AS SELECT nap(id) AS id FROM big",
		"INSERT INTO y SELECT nap(id) FROM big",
	} {
		errc := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := c.Exec(stmt)
			errc <- err
		}()
		time.Sleep(50 * time.Millisecond)
		if err := c.Cancel(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("%s: err = %v, want ErrQueryCancelled", stmt, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s: the cancel took %v to land", stmt, took)
		}
	}
	if db.Catalog().HasTable("x") {
		t.Fatal("a cancelled CREATE TABLE AS created its table")
	}
	tab, err := c.Query(Columnar, "SELECT count(*) AS n FROM y")
	if err != nil {
		t.Fatalf("connection unusable after cancel: %v", err)
	}
	if n := tab.Column("n").Get(0).Int64(); n != 0 {
		t.Fatalf("a cancelled INSERT … SELECT wrote %d rows", n)
	}
	c.Close()
	waitNoLeaks(t, srv, before)
}

// TestSettingsRoundTripOverWire: SET is scoped to its connection.
// SHOW reads a connection's own value back through every protocol,
// while another connection, and the database's defaults, keep theirs.
func TestSettingsRoundTripOverWire(t *testing.T) {
	db, _, addr := bigServer(t, 100, 2)
	a := dial(t, addr, "SET workers = 3", "SET memory_budget = 65536", "SET planner = off")
	b := dial(t, addr)
	for _, c := range []struct {
		name string
		a, b string
	}{
		{"workers", "3", "2"},
		{"memory_budget", "65536", "0"},
		{"planner", "off", "on"},
	} {
		for _, proto := range []Protocol{TextRows, BinaryRows, Columnar} {
			for conn, want := range map[*Client]string{a: c.a, b: c.b} {
				tab, err := conn.Query(proto, "SHOW "+c.name)
				if err != nil {
					t.Fatal(err)
				}
				if tab.NumRows() != 1 || tab.Names[0] != c.name || tab.Cols[0].Get(0).Str() != want {
					t.Fatalf("%s SHOW %s: %v %v, want one row %q", proto, c.name, tab.Names, tab.Cols[0], want)
				}
			}
		}
	}
	if db.Parallelism != 2 || db.MemoryBudget != 0 {
		t.Fatalf("a connection's SET changed the defaults: workers=%d budget=%d", db.Parallelism, db.MemoryBudget)
	}
	if _, err := a.Exec("SET workers = -1"); err == nil {
		t.Fatal("SET workers = -1 accepted")
	}
	if tab, err := a.Query(Columnar, "SELECT count(*) AS n FROM big"); err != nil || tab.Column("n").Get(0).Int64() != 100 {
		t.Fatalf("connection after a rejected SET: %v", err)
	}
}
