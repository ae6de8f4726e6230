package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vexdb"
	"vexdb/internal/plan"
	"vexdb/internal/plan/cost"
	"vexdb/internal/spill"
	"vexdb/internal/sql"
)

// sqlMix is the analyst's workload: one pass is eight queries, each
// drained through vexdb.QueryStream, and one CREATE TABLE AS. sql_mem
// runs it with no memory budget; sql_spill runs the same statements
// under a budget small enough that every blocking operator goes to
// disk, so a spiller change moves one and must leave the other flat,
// and an in-memory fast path that costs the spill path shows as the
// opposite pair. wire, wal and governor do nothing in either.
type sqlMix struct {
	sc    scale
	seed  int64
	dir   string
	rec   *recorder
	spill bool

	db     *vexdb.DB
	stmts  []sqlStmt
	oracle map[string]uint64
	// sealNsPerValue is what loading events cost, measured in setup.
	sealNsPerValue float64
}

type sqlStmt struct {
	class string
	text  string
	// blocking statements build hash tables or sorted runs: under a
	// budget they must spill and the others must not.
	blocking bool
}

type spillCounts struct{ partitions, resident, runs, written, read int64 }

func (s spillCounts) spilled() bool { return s.written > 0 }

// sqlStatements is the operator mix over events and dim. Aggregates
// sum w (dyadic, so exact at any worker count) and count v; nothing
// sums v, whose NaNs and NULLs exercise the total order in the sort
// and the NULL path in count.
func sqlStatements(rows int, seed int64) []sqlStmt {
	r := newRNG(seed, 4)
	span := rows / 20
	from := r.intn(rows - span)
	return []sqlStmt{
		{class: "scan_filter", text: "SELECT id, hi, w FROM events WHERE lo < 40 AND w >= 2048"},
		{class: "scan_pruned", text: fmt.Sprintf("SELECT id, v, cat FROM events WHERE id >= %d AND id < %d", from, from+span)},
		{class: "agg_lo", blocking: true, text: "SELECT lo, cat, count(*) AS n, sum(w) AS sw, count(v) AS nv FROM events GROUP BY lo, cat"},
		{class: "agg_hi", blocking: true, text: "SELECT hi, count(*) AS n, sum(w) AS sw, max(id) AS last FROM events GROUP BY hi"},
		{class: "join", blocking: true, text: "SELECT d.grp, count(*) AS n, sum(e.w) AS sw, sum(d.weight) AS dw FROM events e JOIN dim d ON e.dk = d.dk WHERE e.lo < 500 GROUP BY d.grp"},
		{class: "sort", blocking: true, text: "SELECT id, v FROM events ORDER BY v DESC, id"},
		{class: "topk", text: "SELECT id, v, w FROM events ORDER BY w DESC, id LIMIT 100"},
		{class: "distinct", blocking: true, text: "SELECT count(DISTINCT hi) AS d FROM events"},
	}
}

const (
	ctasSQL      = "CREATE TABLE pass_out AS SELECT id, lo, w, cat FROM events WHERE lo < 250"
	ctasCheckSQL = "SELECT count(*) AS n, sum(id) AS s, sum(w) AS sw FROM pass_out"
)

// segmentRows is storage.SegmentRows, the row capacity of one segment.
const segmentRows = 2048

var sqlLight = map[string]bool{"scan_filter": true, "scan_pruned": true, "topk": true}

func (w *sqlMix) setup() error {
	w.db = vexdb.Open()
	events := genEvents(w.sc.Events, w.sc.Dim, w.seed)
	start := time.Now()
	if err := w.db.CreateTableFrom("events", events); err != nil {
		return err
	}
	w.sealNsPerValue = float64(time.Since(start)) / float64(events.NumRows()*events.NumCols())
	if err := w.db.CreateTableFrom("dim", genDim(w.sc.Dim, w.seed)); err != nil {
		return err
	}
	w.stmts = sqlStatements(w.sc.Events, w.seed)

	// The oracle is the serial, unlimited-memory answer: the engine's
	// byte-identity contract says every other configuration returns
	// the same bytes in the same order.
	w.db.SetParallelism(1)
	w.oracle = map[string]uint64{}
	for _, st := range w.stmts {
		res, err := w.drain(nil, st)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", st.class, err)
		}
		w.oracle[st.class] = res.fp
	}
	if _, err := w.db.Exec(ctasSQL); err != nil {
		return fmt.Errorf("oracle ctas: %w", err)
	}
	fp, err := w.ctasDigest()
	if err != nil {
		return fmt.Errorf("oracle ctas: %w", err)
	}
	w.oracle["ctas"] = fp
	w.db.SetParallelism(0)
	if w.spill {
		tmp := filepath.Join(w.dir, "spill")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		w.db.SetMemoryBudget(w.sc.SpillBudget)
		w.db.SetTempDir(tmp)
	}
	return nil
}

func (w *sqlMix) close() {}

func (w *sqlMix) sizes() map[string]any {
	out := map[string]any{"events_rows": w.sc.Events, "dim_rows": w.sc.Dim, "memory_budget": "unlimited"}
	if st, err := w.db.TableStats("events"); err == nil {
		out["events_logical_bytes"] = st.LogicalBytes
		out["events_stored_bytes"] = st.CompressedBytes
		out["events_segments"] = st.Segments
		if w.spill {
			out["memory_budget"] = w.sc.SpillBudget
			out["events_bytes_per_budget_byte"] = float64(st.LogicalBytes) / float64(w.sc.SpillBudget)
		}
	}
	return out
}

// scanCounts is what zone-map pruning did for one query.
type scanCounts struct{ scanned, skipped int64 }

// drained is a statement's result, fingerprinted, with the counters
// the engine kept while producing it.
type drained struct {
	fp    uint64
	spill spillCounts
	scan  scanCounts
}

// drainEmbedded runs one statement through vexdb.QueryStream to its
// last chunk.
func drainEmbedded(db *vexdb.DB, text string) (drained, error) {
	rows, err := db.QueryStream(text)
	if err != nil {
		return drained{}, err
	}
	defer rows.Close()
	var fp fingerprint
	for {
		t, err := rows.NextTable()
		if err != nil {
			return drained{}, err
		}
		if t == nil {
			break
		}
		fp.add(t)
	}
	out := drained{fp: fp.sum()}
	out.spill.partitions, out.spill.runs, out.spill.written, out.spill.read = rows.SpillStats()
	out.scan.scanned, out.scan.skipped = rows.ScanStats()
	return out, nil
}

// drain runs one statement to its last chunk and fingerprints what it
// returned. Traced, it makes the calls QueryStream makes one by one,
// with a span around each.
func (w *sqlMix) drain(o *opTrace, st sqlStmt) (drained, error) {
	if o == nil {
		return drainEmbedded(w.db, st.text)
	}
	o.begin("sql.Parse")
	stmt, err := sql.Parse(st.text)
	o.end()
	if err != nil {
		return drained{}, err
	}
	o.begin("engine.QueryStmt")
	rs, err := w.db.Engine().QueryStmt(stmt)
	o.end()
	if err != nil {
		return drained{}, err
	}
	defer rs.Close()
	var fp fingerprint
	names := rs.Schema().Names()
	o.begin("ResultSet.Next first")
	for first := true; ; first = false {
		ch, err := rs.Next()
		if first {
			o.end()
			o.begin("ResultSet.Next rest")
		}
		if err != nil {
			o.end()
			return drained{}, err
		}
		if ch == nil {
			break
		}
		fp.add(&vexdb.Table{Names: names, Cols: ch.Cols()})
	}
	ss, scan := rs.SpillStats(), rs.ScanStats()
	out := drained{
		fp:    fp.sum(),
		spill: spillCounts{ss.Partitions(), ss.ResidentPartitions(), ss.Runs(), ss.BytesWritten(), ss.BytesRead()},
		scan:  scanCounts{scan.Scanned(), scan.Skipped()},
	}
	o.end("segments_scanned", out.scan.scanned, "segments_skipped", out.scan.skipped,
		"spill_partitions", out.spill.partitions, "spill_resident", out.spill.resident, "spill_runs", out.spill.runs,
		"spill_bytes_written", out.spill.written, "spill_bytes_read", out.spill.read)
	return out, nil
}

// ctasDigest fingerprints what the CREATE TABLE AS stored and drops
// the table; it runs outside the timed region.
func (w *sqlMix) ctasDigest() (uint64, error) {
	t, err := w.db.Query(ctasCheckSQL)
	if err != nil {
		return 0, err
	}
	var fp fingerprint
	fp.add(t)
	_, err = w.db.Exec("DROP TABLE pass_out")
	return fp.sum(), err
}

// unit is one pass over the mix.
func (w *sqlMix) unit(tr *tracer) {
	var unit, light, heavy time.Duration
	for _, st := range w.stmts {
		o := tr.op("query:" + st.class)
		start := time.Now()
		res, err := w.drain(o, st)
		d := time.Since(start)
		o.finish()
		if !w.rec.op(err) {
			return
		}
		unit += d
		if sqlLight[st.class] {
			light += d
		} else {
			heavy += d
		}
		w.rec.check(res.fp == w.oracle[st.class], "%s: result fingerprint %x, serial unlimited oracle %x", st.class, res.fp, w.oracle[st.class])
		w.rec.check(res.spill.spilled() == (w.spill && st.blocking), "%s: spilled %d bytes (budgeted run: %v, blocking: %v)", st.class, res.spill.written, w.spill, st.blocking)
		if st.class == "scan_pruned" {
			// A range of a twentieth of the sorted ids can touch that
			// many rows' worth of segments, one more at each end, and
			// the unsealed tail, which has no zone map; at full scale
			// that is a prune ratio above 0.9.
			most := int64(w.sc.Events/20/segmentRows + 3)
			w.rec.check(res.scan.scanned <= most && res.scan.skipped > 0, "scan_pruned decoded %d segments and skipped %d, want at most %d decoded", res.scan.scanned, res.scan.skipped, most)
		}
	}
	o := tr.op("ctas")
	o.begin("engine.Exec ctas")
	start := time.Now()
	_, err := w.db.Exec(ctasSQL)
	d := time.Since(start)
	o.finish()
	if !w.rec.op(err) {
		return
	}
	fp, err := w.ctasDigest()
	if w.rec.op(err) {
		w.rec.check(fp == w.oracle["ctas"], "ctas: stored rows digest %x, oracle %x", fp, w.oracle["ctas"])
	}
	w.rec.add("light", light)
	w.rec.add("heavy", heavy)
	w.rec.add("store", d)
	w.rec.add("unit", unit+d)
}

// outputs digests the oracles. They are the engine's own serial
// answers, so a change that alters serial and parallel results alike
// passes every check of a run and shows only here.
func (w *sqlMix) outputs() map[string]string {
	h := uint64(fpOffset)
	for _, class := range sortedKeys(w.oracle) {
		h = mix64(h ^ w.oracle[class])
	}
	return map[string]string{"results_digest": fmt.Sprintf("%x", h)}
}

func (w *sqlMix) save() (*saved, error) {
	return saveDir(w.db, filepath.Join(w.dir, "reopen"), eventsDigestSQL, "SELECT count(*) AS n, sum(dk) AS s, sum(grp) AS g FROM dim")
}

func (w *sqlMix) finish() error {
	if w.spill {
		left, err := os.ReadDir(filepath.Join(w.dir, "spill"))
		if err != nil {
			return err
		}
		w.rec.check(len(left) == 0, "%d spill directories left behind", len(left))
	}
	return nil
}

// layers reports the executor per class from the spans, and probes
// sql, plan, storage and spill directly on the same statements and
// the same table.
func (w *sqlMix) layers(tr *tracer, m map[string]float64) {
	for _, st := range w.stmts {
		m["exec."+st.class+"_ms"] = median(tr.durationsMs("query:" + st.class))
	}
	m["exec.ctas_ms"] = median(tr.durationsMs("engine.Exec ctas"))
	m["exec.first_chunk_ms"] = median(tr.durationsMs("ResultSet.Next first", "query:scan_filter"))
	m["storage.seal_ns_per_value"] = w.sealNsPerValue

	// One pass with one worker: serial against parallel is on record
	// beside nproc, and with one worker the spill counts repeat
	// exactly.
	w.db.SetParallelism(1)
	start := time.Now()
	var total spillCounts
	for _, st := range w.stmts {
		o := tr.op("workers1:" + st.class)
		res, err := w.drain(o, st)
		o.finish()
		if !w.rec.op(err) {
			break
		}
		sp, sc := res.spill, res.scan
		total.partitions += sp.partitions
		total.resident += sp.resident
		total.runs += sp.runs
		total.written += sp.written
		total.read += sp.read
		if st.class == "scan_pruned" {
			m["storage.segments_scanned"] = float64(sc.scanned)
			m["storage.segments_skipped"] = float64(sc.skipped)
			m["storage.prune_ratio"] = float64(sc.skipped) / float64(max(sc.scanned+sc.skipped, 1))
		}
	}
	m["exec.pass_workers1_s"] = time.Since(start).Seconds()
	w.db.SetParallelism(0)
	m["spill.bytes_written"] = float64(total.written)
	m["spill.bytes_read"] = float64(total.read)
	m["spill.partitions"] = float64(total.partitions)
	m["spill.resident_partitions"] = float64(total.resident)
	m["spill.runs"] = float64(total.runs)
	if total.written > 0 {
		m["spill.useful_ratio"] = float64(total.read) / float64(total.written)
	}

	w.probeFrontEnd(tr, m)
	w.probeStorage(tr, m)
	if w.spill {
		w.probeSpillFile(tr, m)
	}
}

// probeFrontEnd times parse, bind and cost-based planning of every
// SELECT of the mix. Bind and plan are reachable only inside engine,
// so they are called directly on the same statements.
func (w *sqlMix) probeFrontEnd(tr *tracer, m map[string]float64) {
	const reps = 200
	eng := w.db.Engine()
	var parse, bind, plans time.Duration
	for _, st := range w.stmts {
		o := tr.op("frontend:" + st.class)
		for i := 0; i < reps; i++ {
			o.begin("sql.Parse")
			start := time.Now()
			stmt, err := sql.Parse(st.text)
			parse += time.Since(start)
			o.end()
			sel, ok := stmt.(*sql.Select)
			if err != nil || !ok {
				w.rec.op(fmt.Errorf("parse %s: %v", st.class, err))
				break
			}
			o.begin("plan.Binder.BindSelect")
			start = time.Now()
			node, err := plan.NewBinder(eng.Catalog(), eng.Registry()).BindSelect(sel)
			bind += time.Since(start)
			o.end()
			if err != nil {
				w.rec.op(fmt.Errorf("bind %s: %w", st.class, err))
				break
			}
			node = plan.Prune(node)
			o.begin("cost.Apply")
			start = time.Now()
			cost.Apply(node, 2, eng.MemoryBudget)
			plans += time.Since(start)
			o.end()
		}
		o.finish()
	}
	n := float64(reps * len(w.stmts))
	m["sql.parse_select_us"] = float64(parse) / 1e3 / n
	m["plan.bind_us"] = float64(bind) / 1e3 / n
	m["plan.cost_us"] = float64(plans) / 1e3 / n
}

// probeStorage decodes every sealed segment of events column by
// column. Which encoding a column got is read from a one-column copy's
// TableStats, the only place the public API says it.
func (w *sqlMix) probeStorage(tr *tracer, m map[string]float64) {
	eng := w.db.Engine()
	tab, err := eng.Catalog().Table("events")
	if !w.rec.op(err) {
		return
	}
	if st, err := w.db.TableStats("events"); err == nil && st.LogicalBytes > 0 {
		m["storage.stored_bytes_per_user_byte"] = float64(st.CompressedBytes) / float64(st.LogicalBytes)
	}
	snap := tab.Data.Snapshot()
	decode := map[string]time.Duration{}
	values := map[string]int{}
	for c, col := range tab.Schema {
		full, err := snap.Column(c)
		if !w.rec.op(err) {
			return
		}
		probe := vexdb.Open()
		if err := probe.CreateTableFrom("p", mustTable([]string{col.Name}, []*vexdb.Vector{full})); !w.rec.op(err) {
			return
		}
		st, err := probe.TableStats("p")
		if !w.rec.op(err) {
			return
		}
		enc, most := "raw", 0
		for name, n := range st.EncodedColumns {
			if n > most {
				enc, most = name, n
			}
		}
		o := tr.op("storage.decode " + col.Name + " (" + enc + ")")
		start := time.Now()
		for i := 0; i < snap.NumSegments(); i++ {
			if !snap.SegmentIsSealed(i) {
				continue
			}
			ch, err := snap.Segment(i, []int{c})
			if !w.rec.op(err) {
				return
			}
			values[enc] += ch.NumRows()
		}
		decode[enc] += time.Since(start)
		o.finish()
	}
	for _, enc := range []string{"for", "dict", "raw"} {
		if values[enc] > 0 {
			m["storage.decode_ns_per_value."+enc] = float64(decode[enc]) / float64(values[enc])
		}
	}

	dir := filepath.Join(w.dir, "saved")
	o := tr.op("storage.SaveDir")
	start := time.Now()
	err = w.db.SaveDir(dir)
	m["storage.save_dir_s"] = time.Since(start).Seconds()
	o.finish()
	if !w.rec.op(err) {
		return
	}
	o = tr.op("storage.LoadDir")
	start = time.Now()
	loaded, err := vexdb.OpenDir(dir)
	m["storage.load_dir_s"] = time.Since(start).Seconds()
	o.finish()
	if w.rec.op(err) {
		w.rec.check(loaded.NumRows("events") == w.sc.Events, "the saved database reloads %d event rows, want %d", loaded.NumRows("events"), w.sc.Events)
	}
}

// probeSpillFile writes every segment of events to one spill file and
// reads it back: the file layer's own bandwidth, without an operator
// deciding what to spill.
func (w *sqlMix) probeSpillFile(tr *tracer, m map[string]float64) {
	tab, err := w.db.Engine().Catalog().Table("events")
	if !w.rec.op(err) {
		return
	}
	snap := tab.Data.Snapshot()
	mgr := spill.NewManager(filepath.Join(w.dir, "spill"), nil)
	defer mgr.Close()
	f, err := mgr.Create("probe")
	if !w.rec.op(err) {
		return
	}
	var write, read time.Duration
	var refs []spill.ChunkRef
	o := tr.op("spill.File")
	for i := 0; i < snap.NumSegments(); i++ {
		ch, err := snap.Segment(i, nil)
		if !w.rec.op(err) {
			return
		}
		o.begin("spill.File.WriteChunkRef")
		start := time.Now()
		ref, err := f.WriteChunkRef(ch.Cols())
		write += time.Since(start)
		o.end()
		if !w.rec.op(err) {
			return
		}
		refs = append(refs, ref)
	}
	rows := 0
	for _, ref := range refs {
		o.begin("spill.File.ReadChunkAt")
		start := time.Now()
		cols, err := f.ReadChunkAt(ref)
		read += time.Since(start)
		o.end()
		if !w.rec.op(err) {
			return
		}
		rows += cols[0].Len()
	}
	o.finish()
	w.rec.check(rows == w.sc.Events, "the spill file returned %d rows, wrote %d", rows, w.sc.Events)
	mb := float64(f.BytesWritten()) / (1 << 20)
	m["spill.write_mb_per_s"] = mb / write.Seconds()
	m["spill.read_mb_per_s"] = mb / read.Seconds()
}
