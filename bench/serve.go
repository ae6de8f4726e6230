package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vexdb"
	"vexdb/internal/governor"
	"vexdb/internal/sql"
	"vexdb/internal/vector"
	"vexdb/internal/wal"
	"vexdb/internal/wire"
)

// serveMixed is the application's view: an in-process csdb-server (a
// durable database behind the resource governor behind the wire
// server) and C closed-loop sessions that read while they write. It is
// the only workload where wire, governor and wal do most of the work;
// reads and writes share tables and one log, so a read gain bought
// from writers, or a cheaper commit bought from recovery, shows.
type serveMixed struct {
	sc     scale
	seed   int64
	dir    string
	rec    *recorder
	traced bool

	opts   vexdb.Options
	db     *vexdb.DB
	server *wire.Server
	conns  []*serveConn

	light, heavy []serveQuery
	eventsDigest uint64

	units        int
	checkpointed bool
}

// serveQuery is one variant of a read on events with the fingerprint
// the embedded engine gave for it before the server started.
type serveQuery struct {
	text   string
	oracle uint64
}

// ingestBatch is WriteRows consecutive ids one session owns. Sessions
// update and delete only their own batches, so what ingest must hold
// after a restart is the sum of what each session saw acknowledged,
// whatever the interleaving was.
type ingestBatch struct {
	base   int64
	sumVal int64
}

type serveConn struct {
	id      int
	client  *wire.Client
	rng     *rng
	live    []ingestBatch // acknowledged and not deleted, oldest first
	written int           // batches this session has inserted
	mutates int
}

// eventsDigestSQL summarises events, which no session writes.
const eventsDigestSQL = "SELECT count(*) AS n, sum(id) AS s, sum(w) AS sw FROM events"

const (
	opLight = iota
	opLightIngest
	opHeavy
	opWrite
	opMutate
)

// scriptMix is the class mix of one 40-operation script: 55% light on
// events, 10% light on ingest, 12.5% heavy, 20% write, 2.5% UPDATE or
// DELETE (the O(table) rewrite path).
var scriptMix = []struct{ class, count int }{
	{opLight, 22}, {opLightIngest, 4}, {opHeavy, 5}, {opWrite, 8}, {opMutate, 1},
}

func ingestID(batch int64, rows int) int64 { return batch * int64(rows) }

// ingestRow derives the other columns of an ingest row from its id.
func ingestRow(id int64) (k, val int64, note string) {
	return id % 16, id % 100, fmt.Sprintf("note-%03d", id%1000)
}

func insertSQL(base int64, rows int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ingest VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		id := base + int64(i)
		k, val, note := ingestRow(id)
		fmt.Fprintf(&b, "(%d, %d, %d, '%s')", id, k, val, note)
	}
	return b.String()
}

func newBatch(base int64, rows int) ingestBatch {
	b := ingestBatch{base: base}
	for i := 0; i < rows; i++ {
		_, val, _ := ingestRow(base + int64(i))
		b.sumVal += val
	}
	return b
}

// batchPayloadBytes is the user data of one batch: three integers and
// the note of every row.
func batchPayloadBytes(base int64, rows int) int {
	n := 0
	for i := 0; i < rows; i++ {
		_, _, note := ingestRow(base + int64(i))
		n += 24 + len(note)
	}
	return n
}

func ingestTable(base int64, rows int) *vexdb.Table {
	id := make([]int64, rows)
	k := make([]int64, rows)
	val := make([]int64, rows)
	note := make([]string, rows)
	for i := range id {
		id[i] = base + int64(i)
		k[i], val[i], note[i] = ingestRow(id[i])
	}
	return mustTable([]string{"id", "k", "val", "note"},
		[]*vexdb.Vector{vexdb.NewVectorInt64(id), vexdb.NewVectorInt64(k), vexdb.NewVectorInt64(val), vexdb.NewVectorString(note)})
}

func (w *serveMixed) governorConfig() vexdb.GovernorConfig {
	return vexdb.GovernorConfig{PoolBytes: w.sc.PoolBytes, MaxActive: serveConnections(), MaxQueued: w.sc.MaxQueued}
}

func (w *serveMixed) setup() error {
	c := serveConnections()
	spillDir := filepath.Join(w.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	gov := w.governorConfig()
	w.opts = vexdb.Options{WALDir: filepath.Join(w.dir, "wal"), SyncMode: vexdb.SyncGroup, TempDir: spillDir, Governor: &gov}
	db, err := vexdb.OpenDurable(w.opts)
	if err != nil {
		return err
	}
	w.db = db
	rows := w.sc.ServeEvents
	if err := db.CreateTableFrom("events", genEvents(rows, 1000, w.seed)); err != nil {
		return err
	}
	if err := db.CreateTableFrom("ingest", ingestTable(0, w.sc.IngestRows)); err != nil {
		return err
	}

	// Read variants and their oracles, from the embedded engine.
	r := newRNG(w.seed, 5)
	span := rows / 5
	for i := 0; i < 16; i++ {
		from := r.intn(rows - span)
		w.light = append(w.light, serveQuery{text: fmt.Sprintf("SELECT id, w FROM events WHERE id >= %d AND id < %d", from, from+span)})
	}
	for i := 0; i < 2; i++ {
		w.heavy = append(w.heavy, serveQuery{text: fmt.Sprintf(
			"SELECT hi, count(*) AS n, sum(w) AS sw, max(id) AS last FROM events WHERE lo >= %d AND lo < %d GROUP BY hi", 100*i, 100*i+200)})
	}
	for _, set := range [][]serveQuery{w.light, w.heavy} {
		for i := range set {
			if set[i].oracle, err = embeddedDigest(db, set[i].text); err != nil {
				return err
			}
		}
	}
	if w.eventsDigest, err = embeddedDigest(db, eventsDigestSQL); err != nil {
		return err
	}

	prefilled := w.sc.IngestRows / w.sc.WriteRows
	for i := 0; i < c; i++ {
		conn := &serveConn{id: i, rng: newRNG(w.seed, uint64(100+i))}
		for b := i; b < prefilled; b += c {
			conn.live = append(conn.live, newBatch(ingestID(int64(b), w.sc.WriteRows), w.sc.WriteRows))
		}
		w.conns = append(w.conns, conn)
	}
	return w.serve()
}

// serve starts the wire server on the open database and connects every
// session to it.
func (w *serveMixed) serve() error {
	w.server = wire.NewServer(w.db.Engine())
	addr, err := w.server.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	for _, c := range w.conns {
		if c.client, err = wire.Dial(addr); err != nil {
			return err
		}
	}
	return nil
}

func embeddedDigest(db *vexdb.DB, text string) (uint64, error) {
	res, err := drainEmbedded(db, text)
	return res.fp, err
}

func (w *serveMixed) sizes() map[string]any {
	out := map[string]any{
		"events_rows": w.sc.ServeEvents, "ingest_prefilled_rows": w.sc.IngestRows, "rows_per_write": w.sc.WriteRows,
		"pool_bytes": w.sc.PoolBytes, "fair_share_bytes": w.sc.PoolBytes / int64(serveConnections()),
		"connections": serveConnections(), "script_ops": w.sc.ScriptOps,
	}
	if st, err := w.db.TableStats("events"); err == nil {
		out["events_logical_bytes"] = st.LogicalBytes
		out["events_bytes_per_pool_byte"] = float64(st.LogicalBytes) / float64(w.sc.PoolBytes)
	}
	return out
}

// streamDigest sends one query and fingerprints the chunks as they are
// decoded: request sent to last chunk decoded.
func streamDigest(o *opTrace, c *wire.Client, text string) (*fingerprint, error) {
	o.begin("wire.Client.Stream")
	st, err := c.Stream(wire.Columnar, text)
	o.end()
	if err != nil {
		return nil, err
	}
	fp := &fingerprint{}
	o.begin("wire.ResultStream.Next first")
	for first := true; ; first = false {
		ch, err := st.Next()
		if first {
			o.end()
			o.begin("wire.ResultStream.Next rest")
		}
		if err != nil {
			o.end()
			return nil, err
		}
		if ch == nil {
			o.end()
			return fp, nil
		}
		fp.add(&vexdb.Table{Cols: ch.Cols()})
	}
}

// script is the session's next 40 operations: the fixed mix in a
// seeded order.
func (c *serveConn) script(ops int) []int {
	var out []int
	for _, m := range scriptMix {
		for i := 0; i < m.count*ops/40; i++ {
			out = append(out, m.class)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := c.rng.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// unit runs one script on every session at once and waits for all of
// them; each session's script time is one unit sample. The warm-up unit
// follows a checkpoint, so that the restart after it has a checkpoint
// to load and exactly one unit of log to replay. A second checkpoint
// runs beside the sessions of the first measured unit (the first with
// spans in a traced run), where its stall shows.
func (w *serveMixed) unit(tr *tracer) {
	if w.units == 0 {
		w.rec.op(w.db.Checkpoint())
	}
	checkpoint := !w.checkpointed && ((w.traced && tr != nil) || (!w.traced && w.units == 1))
	if checkpoint {
		w.checkpointed = true
	}
	w.units++
	var wg sync.WaitGroup
	for _, c := range w.conns {
		wg.Add(1)
		go func(c *serveConn) {
			defer wg.Done()
			start := time.Now()
			if checkpoint && c.id == 0 {
				o := tr.op("checkpoint")
				o.begin("engine.Checkpoint")
				err := w.db.Checkpoint()
				o.finish()
				w.rec.op(err)
			}
			for _, class := range c.script(w.sc.ScriptOps) {
				w.runOp(tr, c, class)
			}
			w.rec.add("unit", time.Since(start))
		}(c)
	}
	wg.Wait()
}

func (w *serveMixed) runOp(tr *tracer, c *serveConn, class int) {
	switch class {
	case opLight, opHeavy:
		set, name := w.light, "light"
		if class == opHeavy {
			set, name = w.heavy, "heavy"
		}
		q := set[c.rng.intn(len(set))]
		o := tr.op(name)
		start := time.Now()
		fp, err := streamDigest(o, c.client, q.text)
		d := time.Since(start)
		o.finish()
		if w.rec.op(err) {
			w.rec.add(name, d)
			w.rec.check(fp.sum() == q.oracle, "%s over the wire: fingerprint %x, embedded oracle %x", name, fp.sum(), q.oracle)
		}
	case opLightIngest:
		o := tr.op("light_ingest")
		start := time.Now()
		o.begin("wire.Client.Query")
		t, err := c.client.Query(wire.Columnar, "SELECT k, count(*) AS n, sum(val) AS s FROM ingest GROUP BY k")
		d := time.Since(start)
		o.finish()
		if w.rec.op(err) {
			w.rec.add("light", d)
			var n int64
			for _, v := range t.Column("n").Int64s() {
				n += v
			}
			// Every statement adds or removes whole batches, so a
			// snapshot that sees part of one is a torn read.
			w.rec.check(n%int64(w.sc.WriteRows) == 0, "a read of ingest saw %d rows, not a whole number of %d-row batches", n, w.sc.WriteRows)
		}
	case opWrite:
		w.write(tr, c)
	case opMutate:
		c.mutates++
		if len(c.live) == 0 {
			w.write(tr, c)
			return
		}
		if c.mutates%2 == 1 {
			b := &c.live[c.rng.intn(len(c.live))]
			w.mutate(tr, c, "update", fmt.Sprintf("UPDATE ingest SET val = val + 1 WHERE id >= %d AND id < %d", b.base, b.base+int64(w.sc.WriteRows)),
				func() { b.sumVal += int64(w.sc.WriteRows) })
		} else {
			b := c.live[0]
			w.mutate(tr, c, "delete", fmt.Sprintf("DELETE FROM ingest WHERE id >= %d AND id < %d", b.base, b.base+int64(w.sc.WriteRows)),
				func() { c.live = c.live[1:] })
		}
	}
}

// write inserts the session's next batch; the statement text is built
// before the clock starts.
func (w *serveMixed) write(tr *tracer, c *serveConn) {
	base := ingestID(int64(1_000_000*(c.id+1)+c.written), w.sc.WriteRows)
	c.written++
	text := insertSQL(base, w.sc.WriteRows)
	o := tr.op("write")
	o.begin("wire.Client.Exec")
	start := time.Now()
	n, err := c.client.Exec(text)
	d := time.Since(start)
	o.finish()
	if !w.rec.op(err) {
		return
	}
	w.rec.add("store", d)
	if w.rec.check(n == int64(w.sc.WriteRows), "INSERT acknowledged %d rows, sent %d", n, w.sc.WriteRows) {
		c.live = append(c.live, newBatch(base, w.sc.WriteRows))
	}
}

func (w *serveMixed) mutate(tr *tracer, c *serveConn, kind, text string, acked func()) {
	o := tr.op(kind)
	o.begin("wire.Client.Exec")
	start := time.Now()
	n, err := c.client.Exec(text)
	d := time.Since(start)
	o.finish()
	if !w.rec.op(err) {
		return
	}
	w.rec.add(kind, d)
	if w.rec.check(n == int64(w.sc.WriteRows), "%s touched %d rows, the batch has %d", kind, n, w.sc.WriteRows) {
		acked()
	}
}

// stop is a graceful shutdown: the sessions hang up, the server drains,
// nothing may be left leased, queued or spilled, and the database
// closes without a checkpoint, so the next open has a log to replay.
func (w *serveMixed) stop() error {
	for _, c := range w.conns {
		c.client.Close()
	}
	w.server.Shutdown(5 * time.Second)
	gs := w.db.GovernorStats()
	w.rec.check(gs.Active == 0 && gs.Queued == 0 && gs.LeasedBytes == 0,
		"after drain the governor still has active=%d queued=%d leased=%d", gs.Active, gs.Queued, gs.LeasedBytes)
	left, err := os.ReadDir(w.opts.TempDir)
	if err != nil {
		return err
	}
	w.rec.check(len(left) == 0, "%d spill directories left behind after drain", len(left))
	return w.db.Close()
}

// close releases everything; it may follow stop.
func (w *serveMixed) close() {
	for _, c := range w.conns {
		if c.client != nil {
			c.client.Close()
		}
	}
	if w.server != nil {
		w.server.Close()
	}
	if w.db != nil {
		w.db.Close()
	}
}

// recoverDB opens the directory of a stopped server (checkpoint load,
// then log replay) and checks that ingest holds exactly the rows the
// sessions saw acknowledged, net of the acknowledged deletes, and that
// events is as it was loaded. A nil database means the open failed,
// which is counted.
func (w *serveMixed) recoverDB() *vexdb.DB {
	var rows, sumID, sumVal int64
	n := int64(w.sc.WriteRows)
	for _, c := range w.conns {
		for _, b := range c.live {
			rows += n
			sumID += n*b.base + n*(n-1)/2
			sumVal += b.sumVal
		}
	}
	db, err := vexdb.OpenDurable(w.opts)
	if !w.rec.op(err) {
		return nil
	}
	t, err := db.Query(ingestSummarySQL)
	if w.rec.op(err) {
		gotRows, gotID, gotVal := t.Cols[0].Int64s()[0], t.Cols[1].Get(0).Int64(), t.Cols[2].Get(0).Int64()
		w.rec.check(gotRows == rows && gotID == sumID && gotVal == sumVal,
			"after a restart ingest holds (rows %d, sum id %d, sum val %d), acknowledged (%d, %d, %d)",
			gotRows, gotID, gotVal, rows, sumID, sumVal)
	}
	fp, err := embeddedDigest(db, eventsDigestSQL)
	if w.rec.op(err) {
		w.rec.check(fp == w.eventsDigest, "after a restart events digests to %x, before %x", fp, w.eventsDigest)
	}
	return db
}

// ingestSummarySQL scans the table the sessions write.
const ingestSummarySQL = "SELECT count(*) AS n, sum(id) AS s, sum(val) AS v FROM ingest"

// save restarts the server after the warm-up unit: it stops, keeps a
// copy of its directory, recovers, and the sessions reconnect; the
// measured phase runs on the recovered database. The copy is what the
// recovery cycles open. It holds fixed work: the loaded tables in a
// checkpoint and one unit in the log. What the measured phase leaves
// depends on how far it got in its fixed time (a faster run leaves a
// bigger table and a longer log), so finish checks that recovery and
// does not time it.
func (w *serveMixed) save() (*saved, error) {
	if err := w.stop(); err != nil {
		return nil, err
	}
	image := w.opts
	image.WALDir = filepath.Join(w.dir, "wal-after-warm-up")
	if err := os.CopyFS(image.WALDir, os.DirFS(w.opts.WALDir)); err != nil {
		return nil, err
	}
	if w.db = w.recoverDB(); w.db == nil {
		return nil, errors.New("the restart failed")
	}
	s := &saved{open: func() (*vexdb.DB, error) { return vexdb.OpenDurable(image) }, summaries: []string{ingestSummarySQL, eventsDigestSQL}}
	if err := s.expect(w.db); err != nil {
		return nil, err
	}
	return s, w.serve()
}

// finish stops the server and recovers what the whole run left, for
// the checks alone.
func (w *serveMixed) finish() error {
	if err := w.stop(); err != nil {
		return err
	}
	w.db = w.recoverDB()
	return nil
}

// outputs digests the read oracles, which the embedded engine computed.
func (w *serveMixed) outputs() map[string]string {
	h := uint64(fpOffset)
	for _, set := range [][]serveQuery{w.light, w.heavy} {
		for _, q := range set {
			h = mix64(h ^ q.oracle)
		}
	}
	return map[string]string{"results_digest": fmt.Sprintf("%x", h)}
}

// layers reads the governor's and the log's own counters, takes the
// tails and the write-path numbers from the spans, and probes sql,
// governor, wire, wal and engine directly. The server is still up.
func (w *serveMixed) layers(tr *tracer, m map[string]float64) {
	gs := w.db.GovernorStats()
	m["governor.admitted"] = float64(gs.Admitted)
	m["governor.rejected"] = float64(gs.Rejected)
	m["governor.timed_out"] = float64(gs.TimedOut)
	m["governor.peak_queued"] = float64(gs.PeakQueued)
	m["governor.grows"] = float64(gs.Grows)
	m["governor.grown_mb"] = float64(gs.GrownBytes) / (1 << 20)
	m["governor.shrinks"] = float64(gs.Shrinks)
	m["governor.reclaims"] = float64(gs.Reclaims)
	m["governor.peak_utilization"] = gs.PeakUtilization
	syncs, commits := w.db.Engine().WALGroupStats()
	m["wal.syncs"] = float64(syncs)
	m["wal.commits"] = float64(commits)
	if syncs > 0 {
		m["wal.avg_batch"] = float64(commits) / float64(syncs)
	}

	m["engine.write_p95_ms"] = percentile(w.rec.get("store"), 95)
	m["engine.update_ms"] = median(w.rec.get("update"))
	m["engine.delete_ms"] = median(w.rec.get("delete"))
	for i := range tr.spans {
		ck := &tr.spans[i]
		if ck.Name != "engine.Checkpoint" {
			continue
		}
		m["engine.checkpoint_s"] = float64(ck.End-ck.Start) / 1e9
		for j := range tr.spans {
			s := &tr.spans[j]
			if s.Parent == 0 && s.Op != ck.Op && s.Start < ck.End && s.End > ck.Start {
				m["engine.checkpoint_stall_ms"] = max(m["engine.checkpoint_stall_ms"], float64(s.End-s.Start)/1e6)
			}
		}
	}

	c := w.conns[0]
	timeIt := func(n int, f func() error) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			start := time.Now()
			err := f()
			out = append(out, float64(time.Since(start))/1e6)
			if !w.rec.op(err) {
				break
			}
		}
		return out
	}

	// The same reads with the server otherwise idle: what the mix adds
	// to a heavy query, what the wire adds to a light one.
	heavy := w.heavy[0]
	alone := timeIt(5, func() error { _, err := streamDigest(nil, c.client, heavy.text); return err })
	m["governor.heavy_contention_ms"] = median(w.rec.get("heavy")) - median(alone)
	light := w.light[0]
	wired := timeIt(15, func() error { _, err := streamDigest(nil, c.client, light.text); return err })
	embedded := timeIt(15, func() error { _, err := embeddedDigest(w.db, light.text); return err })
	m["wire.overhead_ms"] = median(wired) - median(embedded)
	var firsts []float64
	for i := 0; i < 15; i++ {
		o := tr.op("probe:first_chunk")
		start := time.Now()
		o.begin("wire.Client.Stream")
		st, err := c.client.Stream(wire.Columnar, light.text)
		o.end()
		if err == nil {
			o.begin("wire.ResultStream.Next first")
			_, err = st.Next()
			o.end()
			firsts = append(firsts, float64(time.Since(start))/1e6)
			err = errors.Join(err, st.Close())
		}
		o.finish()
		if !w.rec.op(err) {
			break
		}
	}
	m["wire.first_chunk_ms"] = median(firsts)
	m["wire.exec_roundtrip_us"] = 1e3 * median(timeIt(200, func() error {
		_, err := c.client.Exec("SELECT id FROM events WHERE id < 0")
		return err
	}))

	cfg := w.governorConfig()
	g := governor.New(cfg)
	const admits = 20000
	start := time.Now()
	for i := 0; i < admits; i++ {
		t, err := g.Admit(nil, 1, 0, nil)
		if err != nil {
			w.rec.op(err)
			break
		}
		t.Release()
	}
	m["governor.admit_release_ns"] = float64(time.Since(start)) / admits

	// Writes by one session on a quiet server: log bytes per user byte.
	before := w.db.Engine().WALSize()
	payload := 0
	for i := 0; i < 10; i++ {
		payload += batchPayloadBytes(ingestID(int64(1_000_000*(c.id+1)+c.written), w.sc.WriteRows), w.sc.WriteRows)
		w.write(nil, c)
	}
	m["wal.log_bytes_per_user_byte"] = float64(w.db.Engine().WALSize()-before) / float64(payload)

	text := insertSQL(ingestID(9_000_000, w.sc.WriteRows), w.sc.WriteRows)
	parse := timeIt(20, func() error { _, err := sql.Parse(text); return err })
	m["sql.parse_insert_us_per_row"] = 1e3 * median(parse) / float64(w.sc.WriteRows)

	// The same INSERT text into a database with no log: parse, bind
	// and append without the commit.
	mem := vexdb.Open()
	if _, err := mem.Exec("CREATE TABLE ingest (id BIGINT, k BIGINT, val BIGINT, note VARCHAR)"); w.rec.op(err) {
		ins := timeIt(10, func() error { _, err := mem.Exec(text); return err })
		m["engine.insert_rows_per_s"] = float64(w.sc.WriteRows) / (median(ins) / 1e3)
	}

	w.probeWAL(tr, m)
}

// probeWAL appends and commits one-batch records on a log of its own,
// one thread, then replays it.
func (w *serveMixed) probeWAL(tr *tracer, m map[string]float64) {
	dir := filepath.Join(w.dir, "walprobe")
	log, err := wal.Open(dir, wal.SyncGroup)
	if !w.rec.op(err) {
		return
	}
	chunk := vector.NewChunk(ingestTable(0, w.sc.WriteRows).Cols...)
	var commits []float64
	o := tr.op("probe:wal")
	for i := 0; i < 50; i++ {
		start := time.Now()
		o.begin("wal.Log.Append")
		lsn, err := log.Append(&wal.Record{Type: wal.RecInsert, Table: "ingest", Chunk: chunk})
		o.end()
		if err == nil {
			o.begin("wal.Log.Commit")
			err = log.Commit(lsn)
			o.end()
		}
		commits = append(commits, float64(time.Since(start))/1e3)
		if !w.rec.op(err) {
			break
		}
	}
	m["wal.append_commit_us"] = median(commits)
	o.finish()
	if !w.rec.op(log.Close()) {
		return
	}
	// Replay reads a log as recovery does: freshly opened, before any
	// append.
	if log, err = wal.Open(dir, wal.SyncGroup); !w.rec.op(err) {
		return
	}
	records := 0
	o = tr.op("probe:wal.Log.Replay")
	start := time.Now()
	err = log.Replay(func(*wal.Record) error { records++; return nil })
	m["wal.replay_mb_per_s"] = float64(log.Size()) / (1 << 20) / time.Since(start).Seconds()
	o.finish()
	w.rec.op(errors.Join(err, log.Close()))
	w.rec.check(records == len(commits), "the probe log replayed %d records, %d were committed", records, len(commits))
}
