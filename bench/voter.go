package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"vexdb"
	"vexdb/internal/fileformat/csvio"
	"vexdb/internal/fileformat/h5io"
	"vexdb/internal/fileformat/npyio"
	"vexdb/internal/frame"
	"vexdb/internal/wire"
	"vexdb/ml"
	"vexdb/modelstore"
)

// voterInDB is the paper's headline bar: wrangle, train and predict as
// three SQL statements over data that never leaves the column store.
// ml's split search is most of it; exec and storage do the rest; wire,
// wal, governor and spill do nothing.
type voterInDB struct {
	sc   scale
	seed int64
	dir  string
	rec  *recorder

	data *voterData
	db   *vexdb.DB

	wrangleSQL, trainSQL, predictSQL string

	// labeledOracle digests the table the wrangle must produce,
	// computed from the generator's arrays without a join.
	labeledOracle uint64
	testRows      int64

	// The first pipeline's model and quality; every later one must
	// reproduce them exactly.
	modelSHA      string
	accuracy, mae float64
}

const precinctAggSQL = `SELECT precinct_id,
	sum(CASE WHEN pred = 0 THEN 1 ELSE 0 END) AS dem_pred,
	sum(CASE WHEN pred = label THEN 1 ELSE 0 END) AS correct,
	count(*) AS total
	FROM predictions GROUP BY precinct_id`

func prefixed(prefix string, names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return strings.Join(out, ", ")
}

// pipelineSQL is the text of the three statements of
// workload.RunInDatabase, copied so that editing the harness outside
// bench/ cannot move a number.
func pipelineSQL(sc scale, seed int64, feats []string) (wrangle, train, predict string) {
	wrangle = fmt.Sprintf(`CREATE TABLE labeled AS
		SELECT v.voter_id AS id, v.precinct_id AS precinct_id, %s,
		       weighted_label(v.voter_id, CAST(p.dem_votes AS DOUBLE), CAST(p.rep_votes AS DOUBLE), %d) AS label
		FROM voters v JOIN precincts p ON v.precinct_id = p.precinct_id`, prefixed("v.", feats), seed)
	train = fmt.Sprintf(`CREATE TABLE rf_model AS
		SELECT * FROM train_rf((SELECT %s, label FROM labeled WHERE id %% %d <> 0), %d, %d, %d)`,
		strings.Join(feats, ", "), sc.TestModulus, sc.Trees, sc.Depth, seed)
	predict = fmt.Sprintf(`CREATE TABLE predictions AS
		SELECT l.precinct_id AS precinct_id, l.label AS label, predict(m.model, %s) AS pred
		FROM labeled l, rf_model m WHERE l.id %% %d = 0`, prefixed("l.", feats), sc.TestModulus)
	return wrangle, train, predict
}

// labeledDigest digests (id, precinct_id, features.., label) rows in
// any order.
func labeledDigest(ids, precincts []int64, feats [][]float64, labels func(i int) uint64) uint64 {
	cols := []func(int) uint64{
		func(i int) uint64 { return uint64(ids[i]) },
		func(i int) uint64 { return uint64(precincts[i]) },
	}
	for _, f := range feats {
		f := f
		cols = append(cols, func(i int) uint64 { return math.Float64bits(f[i]) })
	}
	cols = append(cols, labels)
	return rowSetDigest(len(ids), cols...)
}

func (v *voterData) labeledOracle() uint64 {
	feats := make([][]float64, v.features)
	for i, n := range v.featureNames() {
		feats[i] = v.voters.Col(n).Floats
	}
	labels := v.labels()
	return labeledDigest(v.voters.Col("voter_id").Ints, v.voters.Col("precinct_id").Ints, feats,
		func(i int) uint64 { return uint64(labels[i]) })
}

// openDB loads both datasets into a fresh in-memory database.
func (v *voterData) openDB() (*vexdb.DB, error) {
	db := vexdb.Open()
	if err := db.CreateTableFrom("voters", frameToTable(v.voters)); err != nil {
		return nil, err
	}
	return db, db.CreateTableFrom("precincts", frameToTable(v.precincts))
}

// testRows counts the voters of the test split: id % modulus == 0.
func (v *voterData) testRows(modulus int) int64 {
	var n int64
	for _, id := range v.voters.Col("voter_id").Ints {
		if id%int64(modulus) == 0 {
			n++
		}
	}
	return n
}

func (w *voterInDB) setup() (err error) {
	w.data = genVoters(w.sc, w.seed)
	if w.db, err = w.data.openDB(); err != nil {
		return err
	}
	w.wrangleSQL, w.trainSQL, w.predictSQL = pipelineSQL(w.sc, w.seed, w.data.featureNames())
	w.labeledOracle = w.data.labeledOracle()
	w.testRows = w.data.testRows(w.sc.TestModulus)
	return nil
}

func (w *voterInDB) close() {}

func (w *voterInDB) sizes() map[string]any {
	return map[string]any{
		"voters": w.sc.Voters, "columns": w.sc.Columns, "precincts": w.sc.Precincts,
		"features": w.sc.Features, "trees": w.sc.Trees, "max_depth": w.sc.Depth,
		"memory_budget": "unlimited",
	}
}

// timedExec runs one statement inside a span and counts it.
func (w *voterInDB) timedExec(o *opTrace, span, text string) (time.Duration, bool) {
	o.begin(span)
	start := time.Now()
	_, err := w.db.Exec(text)
	d := time.Since(start)
	o.end()
	if err != nil {
		err = fmt.Errorf("%s: %w", span, err)
	}
	return d, w.rec.op(err)
}

func (w *voterInDB) drop(tables ...string) bool {
	for _, t := range tables {
		if _, err := w.db.Exec("DROP TABLE IF EXISTS " + t); err != nil {
			return w.rec.op(fmt.Errorf("drop %s: %w", t, err))
		}
	}
	return true
}

// predict runs the predict statement and the per-precinct aggregation,
// the two halves of the paper's predict phase.
func (w *voterInDB) predict(o *opTrace) (time.Duration, *vexdb.Table, bool) {
	d, ok := w.timedExec(o, "mludf.predict", w.predictSQL)
	if !ok {
		return 0, nil, false
	}
	o.begin("exec.precinct_agg")
	start := time.Now()
	agg, err := w.db.Query(precinctAggSQL)
	d += time.Since(start)
	o.end()
	return d, agg, w.rec.op(err)
}

func (w *voterInDB) unit(tr *tracer) {
	if !w.drop("labeled", "rf_model", "predictions") {
		return
	}
	o := tr.op("pipeline")
	wrangle, ok := w.timedExec(o, "exec.wrangle", w.wrangleSQL)
	if !ok {
		o.finish()
		return
	}
	train, ok := w.timedExec(o, "mludf.train", w.trainSQL)
	if !ok {
		o.finish()
		return
	}
	predict, agg, ok := w.predict(o)
	o.finish()
	if !ok {
		return
	}
	w.rec.add("store", wrangle)
	w.rec.add("heavy", train)
	w.rec.add("light", predict)
	w.rec.add("unit", wrangle+train+predict)
	w.checkLabeled()
	w.checkModel()
	w.checkQuality(agg)

	for i := 0; i < w.sc.ExtraSteps; i++ {
		if !w.drop("predictions", "labeled") {
			return
		}
		o := tr.op("wrangle_repeat")
		d, ok := w.timedExec(o, "exec.wrangle", w.wrangleSQL)
		o.finish()
		if !ok {
			return
		}
		w.rec.add("store", d)
		o = tr.op("predict_repeat")
		d, agg, ok := w.predict(o)
		o.finish()
		if !ok {
			return
		}
		w.rec.add("light", d)
		w.checkQuality(agg)
	}
}

func (w *voterInDB) checkLabeled() {
	t, err := w.db.Query("SELECT * FROM labeled")
	if err != nil {
		w.rec.op(fmt.Errorf("read labeled: %w", err))
		return
	}
	cols := make([]func(int) uint64, t.NumCols())
	for c := range cols {
		col := t.Cols[c]
		cols[c] = func(i int) uint64 { return valueBits(col, i) }
	}
	got := rowSetDigest(t.NumRows(), cols...)
	w.rec.check(got == w.labeledOracle, "labeled table digest %x, oracle %x", got, w.labeledOracle)
}

// storedModelSHA is the SHA-256 of the model TRAIN left in rf_model.
func storedModelSHA(db *vexdb.DB) (string, error) {
	t, err := db.Query("SELECT model FROM rf_model")
	if err != nil {
		return "", err
	}
	if t.NumRows() != 1 {
		return "", fmt.Errorf("rf_model holds %d rows, want 1", t.NumRows())
	}
	return fmt.Sprintf("%x", sha256.Sum256(t.Cols[0].Blobs()[0])), nil
}

func (w *voterInDB) checkModel() {
	sha, err := storedModelSHA(w.db)
	if err != nil {
		w.rec.op(fmt.Errorf("read model: %w", err))
		return
	}
	if w.modelSHA == "" {
		w.modelSHA = sha
	}
	w.rec.check(sha == w.modelSHA, "model SHA-256 %s differs from the first pipeline's %s", sha, w.modelSHA)
}

// quality is fillQuality of internal/workload: voter accuracy, and the
// mean absolute error of the predicted per-precinct democrat share.
func (w *voterInDB) quality(agg *vexdb.Table) (accuracy, mae float64, total int64) {
	dem := w.data.precincts.Col("dem_votes").Ints
	rep := w.data.precincts.Col("rep_votes").Ints
	pids := agg.Column("precinct_id").Int64s()
	demPred := agg.Column("dem_pred").Int64s()
	correct := agg.Column("correct").Int64s()
	totals := agg.Column("total").Int64s()
	var sumCorrect int64
	groups := 0
	for i, p := range pids {
		sumCorrect += correct[i]
		total += totals[i]
		if totals[i] == 0 {
			continue
		}
		actual := float64(dem[p]) / float64(dem[p]+rep[p])
		mae += math.Abs(float64(demPred[i])/float64(totals[i]) - actual)
		groups++
	}
	if total > 0 {
		accuracy = float64(sumCorrect) / float64(total)
	}
	if groups > 0 {
		mae /= float64(groups)
	}
	return accuracy, mae, total
}

func (w *voterInDB) checkQuality(agg *vexdb.Table) {
	acc, mae, total := w.quality(agg)
	if w.accuracy == 0 {
		w.accuracy, w.mae = acc, mae
	}
	w.rec.check(total == w.testRows, "predictions cover %d rows, the test split has %d", total, w.testRows)
	// The labels are coin flips weighted by precinct lean, so even a
	// perfect model is far from 1; one that learnt nothing sits at 0.5.
	w.rec.check(acc > 0.55, "voter accuracy %.4f is no better than chance", acc)
	w.rec.check(acc == w.accuracy && mae == w.mae,
		"quality (%.6f, %.6f) differs from the first pipeline's (%.6f, %.6f)", acc, mae, w.accuracy, w.mae)
}

// outputs are the model and its quality: the values the issue wants
// recorded for the seed. The run only checks that every pipeline
// reproduces the first one's.
func (w *voterInDB) outputs() map[string]string {
	return map[string]string{
		"model_sha256": w.modelSHA,
		"accuracy":     fmt.Sprint(w.accuracy),
		"precinct_mae": fmt.Sprint(w.mae),
	}
}

// voterSummarySQL scans three of the voters table's integer columns.
const voterSummarySQL = "SELECT count(*) AS n, sum(voter_id) AS s, sum(precinct_id) AS p, sum(c0) AS c FROM voters"

// save saves the database, model included: a restart must bring back
// the voters and the very model TRAIN stored.
func (w *voterInDB) save() (*saved, error) {
	return saveDir(w.db, filepath.Join(w.dir, "saved"), voterSummarySQL, "SELECT model FROM rf_model")
}

func (w *voterInDB) finish() error { return nil }

// layers measures ml, the TRAIN/PREDICT glue and modelstore directly,
// on the matrix TRAIN sees, and checks the stored model against a
// forest fitted outside the database.
func (w *voterInDB) layers(tr *tracer, m map[string]float64) {
	feats := w.data.featureNames()
	featList := strings.Join(feats, ", ")
	matrix := func(cond string) ([][]float64, []int, error) {
		t, err := w.db.Query(fmt.Sprintf("SELECT %s, label FROM labeled WHERE id %% %d %s 0", featList, w.sc.TestModulus, cond))
		if err != nil {
			return nil, nil, err
		}
		X := make([][]float64, len(feats))
		for i := range X {
			X[i] = t.Cols[i].Float64s()
		}
		lab := t.Cols[len(feats)].Int32s()
		y := make([]int, len(lab))
		for i, l := range lab {
			y[i] = int(l)
		}
		return X, y, nil
	}
	trainX, trainY, err := matrix("<>")
	if err != nil {
		w.rec.op(fmt.Errorf("ml probe: %w", err))
		return
	}
	testX, testY, err := matrix("=")
	if err != nil {
		w.rec.op(fmt.Errorf("ml probe: %w", err))
		return
	}
	newForest := func() *ml.RandomForest {
		f := ml.NewRandomForest(w.sc.Trees)
		f.MaxDepth = w.sc.Depth
		f.Seed = w.seed
		return f
	}
	fit := func(span string, workers int) (*ml.RandomForest, float64) {
		f := newForest()
		o := tr.op(span)
		start := time.Now()
		err := f.FitWorkers(trainX, trainY, workers)
		d := time.Since(start)
		o.finish()
		w.rec.op(err)
		return f, float64(d) / 1e3 / float64(len(trainY))
	}
	// Three fits with the workers TRAIN gets, as warm as the pipeline's
	// own; one with a single worker, so that serial against parallel
	// is on record beside nproc.
	var forest *ml.RandomForest
	var fits []float64
	for i := 0; i < 3; i++ {
		f, perRow := fit("ml.Fit", 0)
		forest, fits = f, append(fits, perRow)
	}
	perRow := median(fits)
	m["ml.fit_us_per_row"] = perRow
	_, m["ml.fit_workers1_us_per_row"] = fit("ml.Fit workers=1", 1)

	o := tr.op("ml.Marshal")
	start := time.Now()
	blob, err := ml.Marshal(forest)
	m["ml.marshal_ms"] = float64(time.Since(start)) / 1e6
	o.finish()
	w.rec.op(err)
	m["ml.model_bytes"] = float64(len(blob))
	sha := fmt.Sprintf("%x", sha256.Sum256(blob))
	w.rec.check(sha == w.modelSHA, "a forest fitted outside the database has SHA-256 %s, TRAIN stored %s", sha, w.modelSHA)

	o = tr.op("ml.Unmarshal")
	start = time.Now()
	clf, err := ml.Unmarshal(blob)
	m["ml.unmarshal_ms"] = float64(time.Since(start)) / 1e6
	o.finish()
	if !w.rec.op(err) {
		return
	}
	pred := make([]int32, len(testY))
	o = tr.op("ml.PredictLabelsInto")
	start = time.Now()
	err = ml.PredictLabelsInto(clf, testX, pred)
	m["ml.predict_ns_per_row"] = float64(time.Since(start)) / float64(len(testY))
	o.finish()
	w.rec.op(err)
	hits := 0
	for i, p := range pred {
		if int(p) == testY[i] {
			hits++
		}
	}
	direct := float64(hits) / float64(len(testY))
	w.rec.check(direct == w.accuracy, "accuracy outside the database %.6f, inside %.6f", direct, w.accuracy)
	m["ml.accuracy"] = w.accuracy
	m["ml.precinct_mae"] = w.mae

	m["mludf.train_overhead_ms"] = median(tr.durationsMs("mludf.train")) - perRow*float64(len(trainY))/1e3

	o = tr.op("mludf.predict stream")
	start = time.Now()
	rows, err := w.db.QueryStream(fmt.Sprintf("SELECT predict(m.model, %s) AS pred FROM labeled l, rf_model m", prefixed("l.", feats)))
	n := 0
	if err == nil {
		for rows.Next() {
			n++
		}
		err = errors.Join(rows.Err(), rows.Close())
	}
	m["mludf.predict_rows_per_s"] = float64(n) / time.Since(start).Seconds()
	o.finish()
	w.rec.op(err)
	w.rec.check(n == w.sc.Voters, "streamed predict returned %d rows, labeled has %d", n, w.sc.Voters)

	store, err := modelstore.Open(w.db)
	if !w.rec.op(err) {
		return
	}
	o = tr.op("modelstore.Save")
	start = time.Now()
	id, err := store.Save("bench", forest, map[string]string{"trees": fmt.Sprint(w.sc.Trees)})
	m["modelstore.save_ms"] = float64(time.Since(start)) / 1e6
	o.finish()
	if !w.rec.op(err) {
		return
	}
	o = tr.op("modelstore.Load")
	start = time.Now()
	loaded, _, err := store.Load(id)
	m["modelstore.load_ms"] = float64(time.Since(start)) / 1e6
	o.finish()
	if w.rec.op(err) {
		again, err := ml.Marshal(loaded)
		w.rec.check(err == nil && fmt.Sprintf("%x", sha256.Sum256(again)) == w.modelSHA, "the model loaded from modelstore is not the model saved")
	}
}

// voterExternal reaches the same data the six other ways Figure 1
// compares: three file formats, two socket protocols and a row cursor,
// each followed by the client-side wrangle. No model is fitted, so ml
// does nothing here and fileformat, wire and frame do everything.
type voterExternal struct {
	sc   scale
	seed int64
	dir  string
	rec  *recorder

	data   *voterData
	db     *vexdb.DB
	server *wire.Server
	addr   string

	labeledOracle uint64
	testRows      int64
}

// placement is one way of getting both datasets into client memory.
type placement struct {
	name string // the span and the op class
	// socket placements count towards heavy_ms, file placements
	// towards light_ms.
	socket bool
	load   func(w *voterExternal) (voters, precincts *frame.DataFrame, err error)
}

func (w *voterExternal) path(name string) string { return filepath.Join(w.dir, name) }

func csvTypes(sc scale) []csvio.ColType {
	types := make([]csvio.ColType, sc.Columns)
	for i := range types {
		types[i] = csvio.Int
		if i >= 2 && i < 2+sc.Features {
			types[i] = csvio.Float
		}
	}
	return types
}

func socketLoad(proto wire.Protocol) func(*voterExternal) (*frame.DataFrame, *frame.DataFrame, error) {
	return func(w *voterExternal) (*frame.DataFrame, *frame.DataFrame, error) {
		c, err := wire.Dial(w.addr)
		if err != nil {
			return nil, nil, err
		}
		defer c.Close()
		return twoFrames(func(q string) (*vexdb.Table, error) { return c.Query(proto, q) })
	}
}

func twoFrames(query func(string) (*vexdb.Table, error)) (*frame.DataFrame, *frame.DataFrame, error) {
	vt, err := query("SELECT * FROM voters")
	if err != nil {
		return nil, nil, err
	}
	pt, err := query("SELECT * FROM precincts")
	if err != nil {
		return nil, nil, err
	}
	voters, err := tableToFrame(vt)
	if err != nil {
		return nil, nil, err
	}
	precincts, err := tableToFrame(pt)
	return voters, precincts, err
}

var placements = []placement{
	{name: "fileformat.npy", load: func(w *voterExternal) (*frame.DataFrame, *frame.DataFrame, error) {
		v, err := npyio.ReadDir(w.path("npy"), "voters")
		if err != nil {
			return nil, nil, err
		}
		p, err := npyio.ReadDir(w.path("npy"), "precincts")
		return v, p, err
	}},
	{name: "fileformat.h5", load: func(w *voterExternal) (*frame.DataFrame, *frame.DataFrame, error) {
		v, err := h5io.ReadFile(w.path("voters.h5"))
		if err != nil {
			return nil, nil, err
		}
		p, err := h5io.ReadFile(w.path("precincts.h5"))
		return v, p, err
	}},
	{name: "fileformat.csv", load: func(w *voterExternal) (*frame.DataFrame, *frame.DataFrame, error) {
		v, err := csvio.ReadFile(w.path("voters.csv"), csvTypes(w.sc))
		if err != nil {
			return nil, nil, err
		}
		p, err := csvio.ReadFile(w.path("precincts.csv"), []csvio.ColType{csvio.Int, csvio.Int, csvio.Int})
		return v, p, err
	}},
	{name: "wire.text", socket: true, load: socketLoad(wire.TextRows)},
	{name: "wire.binary", socket: true, load: socketLoad(wire.BinaryRows)},
	{name: "wire.rowapi", socket: true, load: func(w *voterExternal) (*frame.DataFrame, *frame.DataFrame, error) {
		return twoFrames(func(q string) (*vexdb.Table, error) { return wire.RowIterate(w.db.Engine(), q) })
	}},
}

func (w *voterExternal) setup() error {
	w.data = genVoters(w.sc, w.seed)
	v, p := w.data.voters, w.data.precincts
	for _, step := range []func() error{
		func() error { return csvio.WriteFile(w.path("voters.csv"), v) },
		func() error { return csvio.WriteFile(w.path("precincts.csv"), p) },
		func() error { return npyio.WriteDir(w.path("npy"), "voters", v) },
		func() error { return npyio.WriteDir(w.path("npy"), "precincts", p) },
		func() error { return h5io.WriteFile(w.path("voters.h5"), v) },
		func() error { return h5io.WriteFile(w.path("precincts.h5"), p) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	var err error
	if w.db, err = w.data.openDB(); err != nil {
		return err
	}
	w.server = wire.NewServer(w.db.Engine())
	if w.addr, err = w.server.Start("127.0.0.1:0"); err != nil {
		return err
	}
	w.labeledOracle = w.data.labeledOracle()
	w.testRows = w.data.testRows(w.sc.TestModulus)
	return nil
}

func (w *voterExternal) close() {
	if w.server != nil {
		w.server.Close()
		w.server = nil
	}
}

// outputs is empty: the one oracle here comes from the generator's
// arrays, not from the engine.
func (w *voterExternal) outputs() map[string]string { return nil }

// save saves the served database.
func (w *voterExternal) save() (*saved, error) {
	return saveDir(w.db, w.path("saved"), voterSummarySQL, "SELECT count(*) AS n, sum(dem_votes) AS d, sum(rep_votes) AS r FROM precincts")
}

func (w *voterExternal) finish() error {
	w.close()
	return nil
}

func (w *voterExternal) sizes() map[string]any {
	return map[string]any{"voters": w.sc.Voters, "columns": w.sc.Columns, "precincts": w.sc.Precincts, "placements": len(placements)}
}

// wrangled is what the client-side wrangle leaves in client memory.
type wrangled struct {
	joined        *frame.DataFrame
	labels        []int64
	trainX, testX [][]float64
	trainY, testY []int
}

// clientWrangle is the wrangle of workload.runExternal: join, label
// draw, train/test split and gather of the feature columns.
func (w *voterExternal) clientWrangle(o *opTrace, voters, precincts *frame.DataFrame) (*wrangled, error) {
	o.begin("frame.join")
	joined, err := voters.InnerJoinInt(precincts, "precinct_id", "precinct_id")
	o.end()
	if err != nil {
		return nil, err
	}
	o.begin("frame.wrangle")
	defer o.end()
	ids := joined.Col("voter_id").Ints
	dem := joined.Col("dem_votes").Ints
	rep := joined.Col("rep_votes").Ints
	out := &wrangled{joined: joined, labels: make([]int64, len(ids))}
	var trainIdx, testIdx []int
	for i, id := range ids {
		if hashUnit(uint64(id), uint64(w.seed)) >= float64(dem[i])/float64(dem[i]+rep[i]) {
			out.labels[i] = 1
		}
		if id%int64(w.sc.TestModulus) == 0 {
			testIdx = append(testIdx, i)
		} else {
			trainIdx = append(trainIdx, i)
		}
	}
	feats := make([][]float64, w.sc.Features)
	for f, name := range w.data.featureNames() {
		col, err := joined.MustCol(name)
		if err != nil {
			return nil, err
		}
		feats[f] = col.Floats
	}
	gather := func(idx []int) ([][]float64, []int) {
		X := make([][]float64, len(feats))
		for f, col := range feats {
			g := make([]float64, len(idx))
			for i, r := range idx {
				g[i] = col[r]
			}
			X[f] = g
		}
		y := make([]int, len(idx))
		for i, r := range idx {
			y[i] = int(out.labels[r])
		}
		return X, y
	}
	out.trainX, out.trainY = gather(trainIdx)
	out.testX, out.testY = gather(testIdx)
	return out, nil
}

func (w *voterExternal) unit(tr *tracer) {
	var unit, files, sockets time.Duration
	for _, p := range placements {
		o := tr.op("access:" + p.name)
		o.begin(p.name)
		start := time.Now()
		voters, precincts, err := p.load(w)
		load := time.Since(start)
		o.end()
		if !w.rec.op(err) {
			o.finish()
			return
		}
		start = time.Now()
		wr, err := w.clientWrangle(o, voters, precincts)
		wrangle := time.Since(start)
		o.finish()
		if !w.rec.op(err) {
			return
		}
		w.rec.add("store", wrangle)
		unit += load + wrangle
		if p.socket {
			sockets += load
		} else {
			files += load
		}
		feats := make([][]float64, w.sc.Features)
		for f, name := range w.data.featureNames() {
			feats[f] = wr.joined.Col(name).Floats
		}
		got := labeledDigest(wr.joined.Col("voter_id").Ints, wr.joined.Col("precinct_id").Ints, feats,
			func(i int) uint64 { return uint64(wr.labels[i]) })
		w.rec.check(got == w.labeledOracle, "%s: joined frame digest %x, oracle %x", p.name, got, w.labeledOracle)
		w.rec.check(int64(len(wr.testY)) == w.testRows, "%s: test split has %d rows, want %d", p.name, len(wr.testY), w.testRows)
	}
	w.rec.add("light", files)
	w.rec.add("heavy", sockets)
	w.rec.add("unit", unit)
}

// layers reports each placement's access time from its spans and adds
// the native columnar protocol, which is not one of the paper's six
// bars but is the protocol comparison's baseline.
func (w *voterExternal) layers(tr *tracer, m map[string]float64) {
	for _, p := range placements {
		suffix := ".fetch_s"
		if !p.socket {
			suffix = ".load_s"
		}
		m[p.name+suffix] = median(tr.durationsMs(p.name)) / 1e3
	}
	m["frame.join_ms"] = median(tr.durationsMs("frame.join"))
	m["frame.wrangle_ms"] = median(tr.durationsMs("frame.wrangle"))
	var fetch []float64
	for i := 0; i < 3; i++ {
		o := tr.op("wire.columnar")
		start := time.Now()
		_, _, err := socketLoad(wire.Columnar)(w)
		fetch = append(fetch, time.Since(start).Seconds())
		o.finish()
		w.rec.op(err)
	}
	m["wire.columnar.fetch_s"] = median(fetch)
}
