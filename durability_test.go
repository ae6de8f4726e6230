package vexdb

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"
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
// durable. With checkpoint set, its tenth statement is a checkpoint
// taken with the tail segment open, followed by five INSERTs and a
// DELETE of rows on both sides of the tail's end at the checkpoint:
// recovery loads the checkpoint's image, whose tail was sealed, and
// replays that DELETE onto segment boundaries the writer never had. It
// never exits on its own; the parent kills it.
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
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for n := 0; ; n++ {
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
	for name, mode := range map[string]SyncMode{"group": SyncGroup, "each": SyncEach, "none": SyncNone} {
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
