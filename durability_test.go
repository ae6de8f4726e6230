package vexdb

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"

	"vexdb/internal/difftest"
	"vexdb/internal/vector"
)

// The crash harness re-execs the test binary as a writer child
// (guarded by this env var), kills it with SIGKILL mid-statement, and
// asserts recovery restores exactly a prefix of its statements.
const crashChildEnv = "VEXDB_CRASH_CHILD"

// crashCheckpointEnv makes the child checkpoint while the table's tail
// segment is open and then DELETE a run of rows spanning the tail's
// end at checkpoint time.
const crashCheckpointEnv = "VEXDB_CRASH_CHECKPOINT"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChildMain(dir, os.Getenv(crashCheckpointEnv) != "")
		return
	}
	os.Exit(m.Run())
}

// crashStmt is one statement of the writer child: an insert of
// (seq, payload), an update setting seq's payload, or a delete of the
// seqs seq..hi (whose payload is a placeholder).
type crashStmt struct {
	op      string // "I", "U" or "D"
	seq, hi int64
	payload string
}

// crashRow is one row of crashlog.
type crashRow struct {
	seq     int64
	payload string
}

// apply returns rows after s, in table order: inserts append, updates
// rewrite in place, deletes drop.
func (s crashStmt) apply(rows []crashRow) []crashRow {
	out := make([]crashRow, 0, len(rows)+1)
	for _, r := range rows {
		switch {
		case s.op == "U" && r.seq == s.seq:
			r.payload = s.payload
		case s.op == "D" && r.seq >= s.seq && r.seq <= s.hi:
			continue
		}
		out = append(out, r)
	}
	if s.op == "I" {
		out = append(out, crashRow{s.seq, s.payload})
	}
	return out
}

// crashChildMain is the writer process: it opens the durable database
// in dir, creates the table, then runs INSERTs of consecutive sequence
// numbers interleaved with UPDATEs and DELETEs of rows already
// acknowledged. It prints "do <statement>" before each statement and
// "ack" only after its commit returned — i.e. after its WAL record is
// durable. Every fifth statement is one the engine refuses (a CREATE of
// a taken name or with duplicate columns, an INSERT of the wrong
// arity): it must fail, and is neither printed nor part of the prefix.
// With checkpoint set, its tenth statement is a checkpoint taken with
// the tail segment open, followed by five INSERTs and a DELETE of rows
// on both sides of the tail's end at the checkpoint: recovery loads the
// checkpoint's image, whose tail was sealed, and replays that DELETE
// onto segment boundaries the writer never had. It never exits on its
// own; the parent kills it.
func crashChildMain(dir string, checkpoint bool) {
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "child %s: %v\n", what, err)
		os.Exit(1)
	}
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		fail("open", err)
	}
	if _, err := db.Exec("CREATE TABLE IF NOT EXISTS crashlog (seq BIGINT, payload VARCHAR)"); err != nil {
		fail("create", err)
	}
	// Resume after the recovered rows so repeated crash rounds keep
	// extending one sequence.
	tab, err := db.Query("SELECT seq FROM crashlog")
	if err != nil {
		fail("read", err)
	}
	var live []crashRow
	for _, seq := range tab.Cols[0].Int64s() {
		live = append(live, crashRow{seq: seq})
	}
	next := int64(0)
	if len(live) > 0 {
		next = live[len(live)-1].seq + 1
	}
	out := bufio.NewWriter(os.Stdout)
	run := func(s crashStmt) {
		var stmt string
		switch s.op {
		case "I":
			stmt = fmt.Sprintf("INSERT INTO crashlog VALUES (%d, '%s')", s.seq, s.payload)
		case "U":
			stmt = fmt.Sprintf("UPDATE crashlog SET payload = '%s' WHERE seq = %d", s.payload, s.seq)
		case "D":
			stmt = fmt.Sprintf("DELETE FROM crashlog WHERE seq >= %d AND seq <= %d", s.seq, s.hi)
			if s.seq == s.hi {
				stmt = fmt.Sprintf("DELETE FROM crashlog WHERE seq = %d", s.seq)
			}
		}
		fmt.Fprintf(out, "do %s %d %d %s\n", s.op, s.seq, s.hi, s.payload)
		out.Flush()
		if _, err := db.Exec(stmt); err != nil {
			fail(stmt, err)
		}
		fmt.Fprintln(out, "ack")
		out.Flush()
		live = s.apply(live)
	}
	insert := func() {
		run(crashStmt{op: "I", seq: next, hi: next, payload: fmt.Sprintf("row-%d", next)})
		next++
	}
	// Writes the engine refuses ride between the acknowledged ones: each
	// must fail and log nothing, or recovery would not equal a prefix.
	refused := []string{
		"CREATE TABLE crashlog (seq BIGINT, payload VARCHAR)",
		"CREATE TABLE dup (a INTEGER, a INTEGER)",
		"CREATE TABLE d2 AS SELECT seq, seq FROM crashlog",
		"INSERT INTO crashlog VALUES (1)",
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for n := 0; ; n++ {
		if n%5 == 4 {
			q := refused[n/5%len(refused)]
			if _, err := db.Exec(q); err == nil {
				fail(q, errors.New("a write the engine refuses succeeded"))
			}
			continue
		}
		if checkpoint && n == 10 && len(live) > 0 {
			if err := db.Checkpoint(); err != nil {
				fail("checkpoint", err)
			}
			lo := live[max(0, len(live)-3)].seq
			for i := 0; i < 5; i++ {
				insert()
			}
			run(crashStmt{op: "D", seq: lo, hi: next - 3, payload: "-"})
			continue
		}
		switch r := rng.Intn(10); {
		case r < 7 || len(live) == 0:
			insert()
		case r < 9:
			k := live[rng.Intn(len(live))].seq
			run(crashStmt{op: "U", seq: k, hi: k, payload: fmt.Sprintf("upd-%d-%d", k, n)})
		default:
			k := live[rng.Intn(len(live))].seq
			run(crashStmt{op: "D", seq: k, hi: k, payload: "-"})
		}
	}
}

// spawnCrashChild starts the writer, waits until it acked at least
// minAcks statements, lets it run a little longer (so the kill lands
// at a randomized offset, possibly mid-append), then SIGKILLs it. It
// returns every statement the child started, in order, and how many of
// them it acknowledged.
func spawnCrashChild(t *testing.T, dir string, minAcks int, rng *rand.Rand, checkpoint bool) ([]crashStmt, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	if checkpoint {
		cmd.Env = append(cmd.Env, crashCheckpointEnv+"=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// lines carries "do" statements and acks (nil) in output order.
	lines := make(chan *crashStmt, 1024)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "ack" {
				lines <- nil
				continue
			}
			var s crashStmt
			if _, err := fmt.Sscanf(sc.Text(), "do %s %d %d %s", &s.op, &s.seq, &s.hi, &s.payload); err == nil {
				lines <- &s
			}
		}
	}()

	var stmts []crashStmt
	acked := 0
	deadline := time.After(30 * time.Second)
	for acked < minAcks {
		select {
		case s, ok := <-lines:
			if !ok {
				t.Fatal("crash child exited before acking enough statements")
			}
			if s == nil {
				acked++
			} else {
				stmts = append(stmts, *s)
			}
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("timeout waiting for child acks")
		}
	}
	// Randomized extra running time: the SIGKILL lands at an arbitrary
	// point of an in-flight statement — possibly mid WAL append, mid
	// fsync, or between append and ack.
	time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reaps; exit status is the signal, ignore it
	// Drain any lines buffered before the kill.
	for s := range lines {
		if s == nil {
			acked++
		} else {
			stmts = append(stmts, *s)
		}
	}
	return stmts, acked
}

// assertRecoveredPrefix opens the database after a crash and checks
// crashlog holds exactly base with the child's first k statements
// applied, for some k that covers every acknowledged one: no
// acknowledged statement is lost, nothing is torn, and the rows are in
// table order. It returns the recovered rows.
func assertRecoveredPrefix(t *testing.T, dir string, base []crashRow, stmts []crashStmt, acked int) []crashRow {
	t.Helper()
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db.Close()
	tab, err := db.Query("SELECT seq, payload FROM crashlog")
	if err != nil {
		t.Fatalf("post-crash table unreadable: %v", err)
	}
	got := make([]crashRow, tab.NumRows())
	for i := range got {
		got[i] = crashRow{tab.Cols[0].Int64s()[i], tab.Cols[1].Get(i).Str()}
	}
	model := base
	for k := 0; k <= len(stmts); k++ {
		if k >= acked && slices.Equal(got, model) {
			return got
		}
		if k < len(stmts) {
			model = stmts[k].apply(model)
		}
	}
	t.Fatalf("recovered %d rows match no prefix of %d statements covering the %d acknowledged", len(got), len(stmts), acked)
	return nil
}

// TestCrashRecoveryKill9 kills a writer process with SIGKILL at
// randomized offsets mid-statement, several rounds against the same
// WAL directory, asserting after every crash that recovery yields
// exactly a prefix of the statements covering every acknowledged one —
// never a lost ack, never a torn row.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var rows []crashRow
	for round := 0; round < 3; round++ {
		stmts, acked := spawnCrashChild(t, dir, 50+rng.Intn(100), rng, false)
		rows = assertRecoveredPrefix(t, dir, rows, stmts, acked)
		t.Logf("round %d: %d statements acked, recovered %d rows", round, acked, len(rows))
	}
}

// TestCrashRecoveryAfterCheckpoint crashes writers whose history spans
// a checkpoint: recovery must stitch checkpoint tables and log suffix
// back together — after a checkpoint taken between writers, and after
// one the writer took itself with the tail segment open, followed by a
// DELETE across the end of that tail.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	stmts, acked := spawnCrashChild(t, dir, 60, rng, false)
	rows := assertRecoveredPrefix(t, dir, nil, stmts, acked)

	// Checkpoint in the parent, then run (and kill) another writer so
	// the log holds only post-checkpoint records.
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	stmts, acked = spawnCrashChild(t, dir, 40, rng, false)
	rows = assertRecoveredPrefix(t, dir, rows, stmts, acked)

	stmts, acked = spawnCrashChild(t, dir, 40, rng, true)
	spanning := slices.IndexFunc(stmts, func(s crashStmt) bool { return s.op == "D" && s.hi > s.seq })
	if spanning < 0 || spanning >= acked {
		t.Fatalf("the DELETE across the checkpointed tail was not acknowledged (statement %d of %d acked)", spanning, acked)
	}
	assertRecoveredPrefix(t, dir, rows, stmts, acked)
}

func TestDurableReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	script := `
		CREATE TABLE kv (k BIGINT, v VARCHAR);
		INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three');
		DELETE FROM kv WHERE k = 2;
		UPDATE kv SET v = 'ONE' WHERE k = 1;
		CREATE TABLE doomed (x BIGINT);
		DROP TABLE doomed;
		CREATE TABLE copied AS SELECT k FROM kv;
	`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tab, err := re.Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.Cols[1].Get(0).Str() != "ONE" || tab.Cols[0].Get(1).Int64() != 3 {
		t.Fatalf("recovered kv wrong: %d rows", tab.NumRows())
	}
	if re.HasTable("doomed") {
		t.Fatal("dropped table resurrected by replay")
	}
	if n := re.NumRows("copied"); n != 2 {
		t.Fatalf("CTAS table recovered %d rows, want 2", n)
	}
}

// A checkpoint must shrink the log and leave the database reopenable
// from checkpoint tables alone plus an (almost) empty log.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE big (x BIGINT, s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO big VALUES (%d, 'padding-padding-%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Engine().WALSize()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := db.Engine().WALSize()
	if after >= before {
		t.Fatalf("checkpoint did not truncate the log: %d -> %d bytes", before, after)
	}
	// More writes after the checkpoint land in the fresh log.
	if _, err := db.Exec("INSERT INTO big VALUES (50, 'after-checkpoint')"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.NumRows("big"); n != 51 {
		t.Fatalf("recovered %d rows, want 51", n)
	}
	// Exactly one checkpoint directory remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if e.IsDir() {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoint directories left, want 1", ckpts)
	}
}

// CreateTableFrom (the bulk-load fast path) must be durable too.
func TestCreateTableFromDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable([]string{"x"}, []*Vector{NewVectorInt64([]int64{7, 8, 9})})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFrom("bulk", tab); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.NumRows("bulk"); n != 3 {
		t.Fatalf("bulk-loaded table recovered %d rows, want 3", n)
	}
}

func TestSyncModesAllRecover(t *testing.T) {
	for name, mode := range map[string]SyncMode{"group": SyncGroup, "none": SyncNone} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			db, err := OpenDurable(Options{WALDir: dir, SyncMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.ExecScript("CREATE TABLE t (x BIGINT); INSERT INTO t VALUES (1), (2)"); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurable(Options{WALDir: dir, SyncMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if n := re.NumRows("t"); n != 2 {
				t.Fatalf("mode %s recovered %d rows", name, n)
			}
		})
	}
}

func TestTruncateResetsStatistics(t *testing.T) {
	db := Open()
	// Enough rows to seal segments so sketches exist.
	vals := make([]int64, 3*2048)
	for i := range vals {
		vals[i] = int64(i)
	}
	tb, err := NewTable([]string{"x"}, []*Vector{NewVectorInt64(vals)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFrom("s", tb); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Engine().Catalog().Table("s")
	if err != nil {
		t.Fatal(err)
	}
	before := tab.Data.ColumnStatistics()
	if before[0].Distinct == 0 {
		t.Fatal("test needs sealed sketches before truncate")
	}
	if _, err := db.Exec("DELETE FROM s"); err != nil {
		t.Fatal(err)
	}
	after := tab.Data.ColumnStatistics()
	if after[0].Distinct != 0 || after[0].StatsRows != 0 || after[0].SketchRows != 0 {
		t.Fatalf("stale statistics after truncate: %+v", after[0])
	}
	if after[0].HasMinMax {
		t.Fatalf("stale min/max bounds after truncate: %+v", after[0])
	}
}

// tableFingerprints returns every table of db by name, each as
// difftest.Fingerprint of its rows in table order.
func tableFingerprints(t testing.TB, db *DB) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, name := range db.TableNames() {
		tab, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		out[name] = difftest.Fingerprint(tab)
	}
	return out
}

// sameTables fails t unless got holds the tables of want, row for row.
func sameTables(t testing.TB, what string, got, want map[string][]string) {
	t.Helper()
	if !maps.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("%s: tables %v, want %v", what, got, want)
	}
}

// TestRefusedWritesAreNotLogged issues writes the engine refuses to a
// durable database: each returns its error, the one a database without
// a WAL returns too, and logs nothing, and the directory reopens —
// without a Close, as a crash leaves it, and after one — to the tables
// as they were before the write.
func TestRefusedWritesAreNotLogged(t *testing.T) {
	oneCol, err := NewTable([]string{"a"}, []*Vector{NewVectorInt32([]int32{7})})
	if err != nil {
		t.Fatal(err)
	}
	strs, err := NewTable([]string{"a", "s"}, []*Vector{NewVectorString([]string{"x"}), NewVectorString([]string{"y"})})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(q string) func(*DB) error {
		return func(db *DB) error { _, err := db.Exec(q); return err }
	}
	for _, c := range []struct {
		name  string
		write func(*DB) error
	}{
		{"create taken name", exec("CREATE TABLE t (y INTEGER)")},
		{"create duplicate columns", exec("CREATE TABLE v (a INTEGER, a INTEGER)")},
		{"ctas duplicate names", exec("CREATE TABLE x AS SELECT a, a FROM t")},
		{"ctas taken name", exec("CREATE TABLE u AS SELECT a FROM t")},
		{"create from taken name", func(db *DB) error { return db.CreateTableFrom("t", oneCol) }},
		{"append wrong width", func(db *DB) error { return db.Engine().AppendChunk("t", oneCol.Chunk()) }},
		{"append uncastable", func(db *DB) error { return db.Engine().AppendChunk("t", strs.Chunk()) }},
		{"drop missing", exec("DROP TABLE nope")},
		{"insert wrong arity", exec("INSERT INTO t VALUES (1)")},
		{"update failing cast", exec("UPDATE t SET a = s WHERE a > 1")},
	} {
		t.Run(c.name, func(t *testing.T) {
			const setup = `CREATE TABLE t (a INTEGER, s VARCHAR);
				INSERT INTO t VALUES (1, '1'), (2, 'two'), (3, '3');
				CREATE TABLE u AS SELECT s FROM t`
			mem := Open()
			if _, err := mem.ExecScript(setup); err != nil {
				t.Fatal(err)
			}
			memErr := c.write(mem)
			if memErr == nil {
				t.Fatal("a database without a WAL accepted the write")
			}
			dir := t.TempDir()
			db, err := OpenDurable(Options{WALDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.ExecScript(setup); err != nil {
				t.Fatal(err)
			}
			before, size := tableFingerprints(t, db), db.Engine().WALSize()
			if err := c.write(db); err == nil || err.Error() != memErr.Error() {
				t.Fatalf("durable write returned %v, without a WAL %v", err, memErr)
			}
			if grown := db.Engine().WALSize() - size; grown != 0 {
				t.Fatalf("the refused write logged %d bytes", grown)
			}
			sameTables(t, "live", tableFingerprints(t, db), before)
			for _, closed := range []bool{false, true} {
				if closed {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
				}
				re, err := OpenDurable(Options{WALDir: dir})
				if err != nil {
					t.Fatalf("reopen (closed %v): %v", closed, err)
				}
				sameTables(t, fmt.Sprintf("reopened (closed %v)", closed), tableFingerprints(t, re), before)
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// fuzzTables are the tables FuzzReplayMatchesLive writes.
var fuzzTables = [3]string{"a", "b", "c"}

// fuzzWrite issues the write op and k choose against db: CREATE, CTAS,
// INSERT (VALUES, SELECT, and a bulk append of BIGINT cells into the
// INTEGER column), UPDATE, DELETE and DROP over fuzzTables, in forms
// that apply, forms that fail on the state they meet, and forms the
// engine always refuses. The write's error is dropped: a failing write
// is as much the input as one that applies.
func fuzzWrite(db *DB, op, k byte) {
	t, u, v := fuzzTables[k%3], fuzzTables[k/3%3], int(k)
	var q string
	switch op % 14 {
	case 0:
		q = fmt.Sprintf("CREATE TABLE %s (x INTEGER, y VARCHAR)", t)
	case 1:
		q = fmt.Sprintf("CREATE TABLE %s (x INTEGER, X VARCHAR)", t)
	case 2:
		q = fmt.Sprintf("CREATE TABLE %s AS SELECT x, y FROM %s WHERE x < %d", t, u, v)
	case 3:
		q = fmt.Sprintf("CREATE TABLE %s AS SELECT x, x FROM %s", t, u)
	case 4:
		q = fmt.Sprintf("INSERT INTO %s VALUES (%d, 's%d'), (%d, '%d')", t, v, v, v+1, v)
	case 5:
		q = fmt.Sprintf("INSERT INTO %s VALUES (%d)", t, v)
	case 6:
		q = fmt.Sprintf("INSERT INTO %s SELECT x, y FROM %s", t, u)
	case 7:
		q = fmt.Sprintf("UPDATE %s SET x = x + 1, y = 'u%d' WHERE x < %d", t, v, v)
	case 8:
		q = fmt.Sprintf("UPDATE %s SET x = y WHERE x >= %d", t, v)
	case 9:
		q = fmt.Sprintf("DELETE FROM %s WHERE x < %d", t, v)
	case 10:
		q = "DELETE FROM " + t
	case 11:
		q = "DROP TABLE " + t
	case 12:
		_ = db.Engine().AppendChunk(t, vector.NewChunk(NewVectorInt32([]int32{int32(v)})))
		return
	default:
		_ = db.Engine().AppendChunk(t, vector.NewChunk(NewVectorInt64([]int64{int64(v), -1}), NewVectorString([]string{"bulk", fmt.Sprint(v)})))
		return
	}
	_, _ = db.Exec(q)
}

// FuzzReplayMatchesLive drives a durable database (SyncNone) with
// the writes pairs of bytes choose (fuzzWrite), then opens its
// directory again without closing it: the replayed database must hold
// the same tables as the live one, each with the same rows in the same
// order. The seeds include a CREATE over a table holding rows, a
// duplicate-column CREATE and a CTAS naming one column twice.
func FuzzReplayMatchesLive(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 4, 3, 0, 0, 13, 0})
	f.Add([]byte{1, 1, 0, 1, 13, 1})
	f.Add([]byte{0, 0, 4, 0, 3, 1, 2, 1, 12, 1})
	f.Add([]byte{0, 0, 4, 0, 4, 5, 7, 3, 8, 0, 9, 2, 6, 0, 10, 0, 5, 0, 11, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := t.TempDir()
		db, err := OpenDurable(Options{WALDir: dir, SyncMode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i+1 < len(ops); i += 2 {
			fuzzWrite(db, ops[i], ops[i+1])
		}
		re, err := OpenDurable(Options{WALDir: dir, SyncMode: SyncNone})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		defer re.Close()
		sameTables(t, "replayed", tableFingerprints(t, re), tableFingerprints(t, db))
	})
}
