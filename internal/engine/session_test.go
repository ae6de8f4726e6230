package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/core"
	"vexdb/internal/difftest"
	"vexdb/internal/vector"
)

// TestSettingsSetShow: a session starts at the database's defaults,
// SHOW reads back what SET wrote, and a SET changes neither the
// defaults nor another session; without a session SHOW reads the
// defaults and SET fails.
func TestSettingsSetShow(t *testing.T) {
	db := New()
	db.Parallelism, db.MemoryBudget = 3, 1<<20
	a, b := db.NewSession(), db.NewSession()
	for _, c := range []struct {
		s          *Session
		stmt, want string
	}{
		{a, "SHOW workers", "3"},
		{a, "SHOW memory_budget", "1048576"},
		{a, "SHOW planner", "on"},
		{a, "SET workers = 8", "workers=8"},
		{a, "SET workers = 0", "workers=0"},
		{a, "SET memory_budget = 65536", "memory_budget=65536"},
		{a, "SET planner = off", "planner=off"},
		{b, "SET planner = 'ON'", "planner=on"},
		{b, "SHOW workers", "3"},
		{nil, "SHOW memory_budget", "1048576"},
	} {
		res, err := db.ExecSession(c.s, c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		if name, want, ok := strings.Cut(c.want, "="); ok {
			res, err = db.ExecSession(c.s, "SHOW "+name)
			if err != nil || res.Table.Names[0] != name || res.Table.Cols[0].Get(0).Str() != want {
				t.Fatalf("%s; SHOW %s: %v %v", c.stmt, name, res, err)
			}
		} else if res.Table.NumRows() != 1 || res.Table.Cols[0].Get(0).Str() != c.want {
			t.Fatalf("%s = %v, want one row %q", c.stmt, res.Table.Cols[0], c.want)
		}
	}
	if want := (Settings{Budget: 65536}); a.Settings != want {
		t.Fatalf("a = %+v, want %+v", a.Settings, want)
	}
	if def := db.defaults(); b.Settings != def || def != (Settings{Workers: 3, Budget: 1 << 20, Planner: true}) {
		t.Fatalf("b = %+v and defaults %+v, want both untouched", b.Settings, def)
	}
	if _, err := db.Exec("SET workers = 2"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("SET without a session: err = %v, want ErrNoSession", err)
	}
}

// TestSettingsRejectBadValues: each bad SET fails with its named error
// and leaves the session as it was. The workers bound is checked by its
// error alone: no query runs at that width.
func TestSettingsRejectBadValues(t *testing.T) {
	db := New()
	s := db.NewSession()
	before := s.Settings
	for stmt, want := range map[string]error{
		"SET parallelism = 2":                         ErrUnknownSetting,
		"SHOW parallelism":                            ErrUnknownSetting,
		"SET workers = -1":                            ErrSettingValue,
		"SET memory_budget = -65536":                  ErrSettingValue,
		fmt.Sprintf("SET workers = %d", MaxWorkers+1): ErrSettingValue,
		"SET workers = 1000000000000":                 ErrSettingValue,
		"SET workers = two":                           ErrSettingValue,
		"SET memory_budget = 1.5":                     ErrSettingValue,
		"SET memory_budget = '64KB'":                  ErrSettingValue,
		"SET planner = maybe":                         ErrSettingValue,
		fmt.Sprintf("SET workers = %d", MaxWorkers):   nil,
	} {
		if _, err := db.ExecSession(s, stmt); !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", stmt, err, want)
		}
	}
	if before.Workers = MaxWorkers; s.Settings != before {
		t.Fatalf("rejected SETs changed the session: %+v", s.Settings)
	}
}

// TestSessionSettingsReachEveryStatement: EXPLAIN plans with the
// session's planner setting, EXPLAIN ANALYZE leads with the settings
// its query ran with, and the SELECT of CREATE TABLE AS and INSERT …
// SELECT runs at the session's width: a Parallel UDF sees one call at
// a time at one worker, and overlapping calls at four.
func TestSessionSettingsReachEveryStatement(t *testing.T) {
	db := New()
	loadEvents(t, db, 3000)
	const q = "SELECT ev1.v, ev2.w, dm.label FROM ev1 JOIN ev2 ON ev1.k = ev2.k JOIN dm ON ev1.dk = dm.dk WHERE dm.dk < 2"
	for _, set := range []Settings{{Workers: 2, Planner: true}, {Workers: 3, Budget: 65536}} {
		plan, analyzed := planTextIn(t, db, set, "EXPLAIN "+q), planTextIn(t, db, set, "EXPLAIN ANALYZE "+q)
		head := fmt.Sprintf("settings: workers=%d budget=%d planner=%s\n", set.Workers, set.Budget, onOff(set.Planner))
		if strings.Contains(plan, "rowpos") != set.Planner || !strings.HasPrefix(analyzed, head) {
			t.Fatalf("%+v: EXPLAIN\n%s\nEXPLAIN ANALYZE\n%s", set, plan, analyzed)
		}
	}

	var inFlight, peak atomic.Int64
	err := db.Registry().RegisterScalar(&core.ScalarFunc{
		Name: "overlap", Arity: 1, Parallel: true, ReturnType: core.FixedReturn(vector.Int64),
		Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE dst (k BIGINT)")
	for i, stmt := range []string{
		"CREATE TABLE c%d AS SELECT overlap(k) AS k FROM ev1",
		"INSERT INTO dst SELECT overlap(k) FROM ev1 WHERE %d > 0",
	} {
		for _, workers := range []int{1, 4} {
			peak.Store(0)
			stmt := fmt.Sprintf(stmt, i*10+workers)
			if res, err := db.ExecSession(sessionOf(db, Settings{Workers: workers}), stmt); err != nil || res.RowsAffected != 3000 {
				t.Fatalf("%s: %v", stmt, err)
			}
			if got := peak.Load(); (got == 1) != (workers == 1) {
				t.Fatalf("%s at workers=%d: %d concurrent calls", stmt, workers, got)
			}
		}
	}
}

// TestSessionsRunConcurrently: two sessions on one database, at widths
// 1 and 8 and budgets unlimited and 64 KB, run the same query at the
// same time and return the same bytes; only the budgeted one spills.
func TestSessionsRunConcurrently(t *testing.T) {
	db := New()
	db.TempDir = t.TempDir()
	loadWide(t, db, 10_000)
	const q = "SELECT k, g, count(*) AS n, min(v) AS mn, max(s) AS mx FROM w GROUP BY k, g ORDER BY k, g"
	sets := []Settings{{Workers: 1, Planner: true}, {Workers: 8, Budget: 64 << 10, Planner: true}}
	tabs, errs := make([]*vector.Table, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := db.QuerySession(context.Background(), sessionOf(db, set), q)
			if err == nil {
				tabs[i], err = rs.Materialize()
			}
			if errs[i] = err; err == nil && rs.SpillStats().Spilled() != (set.Budget > 0) {
				errs[i] = fmt.Errorf("spilled=%v", rs.SpillStats().Spilled())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if d := difftest.Diff(tabs[1], tabs[0]); d != "" {
		t.Fatalf("width 8 under 64 KB differs from width 1: %s", d)
	}
}
