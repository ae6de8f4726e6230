package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vexdb"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func tableDigest(t *vexdb.Table) uint64 {
	var fp fingerprint
	fp.add(t)
	return fp.sum()
}

// generatorDigests fingerprints every generated table at smoke scale.
func generatorDigests(seed int64) map[string]uint64 {
	sc := scales["smoke"]
	v := genVoters(sc, seed)
	return map[string]uint64{
		"voters":    tableDigest(frameToTable(v.voters)),
		"precincts": tableDigest(frameToTable(v.precincts)),
		"labeled":   v.labeledOracle(),
		"events":    tableDigest(genEvents(sc.Events, sc.Dim, seed)),
		"dim":       tableDigest(genDim(sc.Dim, seed)),
		"ingest":    tableDigest(ingestTable(0, sc.IngestRows)),
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	want := map[string]uint64{
		"voters":    0x6f1002b6a11072b7,
		"precincts": 0xa18c3acf5f3a88c4,
		"labeled":   0xaaba831f388ee3ac,
		"events":    0x85a55e01b39ef144,
		"dim":       0x1e5214355675dd17,
		"ingest":    0xde6600ec540528e5,
	}
	one := generatorDigests(1)
	for name, w := range want {
		if one[name] != w {
			t.Errorf("seed 1: %s digests to %#x, recorded %#x", name, one[name], w)
		}
	}
	two := generatorDigests(2)
	for name := range want {
		if name != "ingest" && two[name] == one[name] {
			t.Errorf("%s digests the same for seeds 1 and 2", name)
		}
	}
	if again := generatorDigests(1); again["events"] != one["events"] || again["voters"] != one["voters"] {
		t.Error("the same seed generated different tables")
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(ten); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(ten, 90); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},
		{ID: 6, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40, "a": 30, "b": 10, "c": 20, "late": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNestsSpansAndIsInertWhenNil(t *testing.T) {
	var off *tracer
	o := off.op("x")
	o.begin("y")
	o.end()
	o.finish() // must not panic

	tr := newTracer()
	o = tr.op("query")
	o.begin("parse")
	o.end()
	o.begin("exec")
	o.begin("next")
	o.end("rows", int64(7))
	o.finish() // closes exec and the root
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(tr.spans))
	}
	root, next := tr.spans[0], tr.spans[3]
	if root.Parent != 0 || root.Name != "query" || next.Parent != tr.spans[2].ID || next.Counts["rows"] != 7 {
		t.Errorf("span tree is wrong: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != root.Op || s.End < s.Start {
			t.Errorf("span %+v: want op %s and end after start", s, root.Op)
		}
	}
}

// tamperers hand each workload a wrong oracle.
var tamperers = map[string]func(workload){
	"voter_indb":     func(w workload) { w.(*voterInDB).labeledOracle ^= 1 },
	"voter_external": func(w workload) { w.(*voterExternal).labeledOracle ^= 1 },
	"sql_mem":        func(w workload) { w.(*sqlMix).oracle["agg_hi"] ^= 1 },
	"sql_spill":      func(w workload) { w.(*sqlMix).oracle["ctas"] ^= 1 },
	"serve_mixed":    func(w workload) { s := w.(*serveMixed); s.light[0].oracle ^= 1; s.light[1].oracle ^= 1 },
}

// recordedOutputs is what each workload computes for seed 1 at smoke
// scale: the stored model with its quality, and the digests of the SQL
// results. A run checks these values only against the engine's own
// first or serial answer, so a change that alters both alike (a TRAIN
// that picks other splits, an aggregate that rounds differently) shows
// here and nowhere else. Such a change updates the constants and says
// so.
var recordedOutputs = map[string]map[string]string{
	"voter_indb": {
		"model_sha256": "e4aa3e3d85efa97e26e062cc5b0579b275c0000deb6b4233b89be821c3d1785b",
		"accuracy":     "0.682",
		"precinct_mae": "0.23634301352543088",
	},
	"voter_external": nil,
	"sql_mem":        {"results_digest": "92f617e42019b650"},
	"sql_spill":      {"results_digest": "92f617e42019b650"},
	"serve_mixed":    {"results_digest": "feb86ca1163fe518"},
}

func TestEveryWorkloadAtSmokeScale(t *testing.T) {
	spec := testSpec(t)
	out := t.TempDir()
	goroutines := runtime.NumGoroutine()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(spec, name, scales["smoke"], 1, 0.1, traced, out, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if !maps.Equal(res.Outputs, recordedOutputs[name]) {
				t.Errorf("%s traced=%v: outputs %v, recorded for seed 1 %v", name, traced, res.Outputs, recordedOutputs[name])
			}
			decls := spec.EndToEnd
			if traced {
				decls = spec.PerLayer
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
		res, err := run(spec, name, scales["smoke"], 1, 0.1, false, out, tamperers[name])
		if err != nil {
			t.Fatalf("%s with a wrong oracle: %v", name, err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a wrong oracle went unnoticed", name)
		}
	}

	// The designed contrasts, at the scale the tests can afford.
	layer := func(name string) map[string]metric {
		res, err := run(spec, name, scales["smoke"], 1, 0.1, true, out, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	mem, spilled, ext := layer("sql_mem"), layer("sql_spill"), layer("voter_external")
	for _, n := range []string{"spill.bytes_written", "spill.partitions", "spill.runs"} {
		if mem[n].Value != 0 || spilled[n].Value == 0 {
			t.Errorf("%s: sql_mem %v (want 0), sql_spill %v (want > 0)", n, mem[n].Value, spilled[n].Value)
		}
	}
	if ext["ml.fit_us_per_row"].Value != 0 {
		t.Error("voter_external reports ml time; it must not fit a model")
	}
	data, err := os.ReadFile(filepath.Join(out, "trace-voter_external.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Error("the trace file holds no spans")
	}
	for _, s := range tf.Spans {
		if len(s.Name) > 3 && s.Name[:3] == "ml." {
			t.Errorf("voter_external trace holds an ml span: %s", s.Name)
		}
	}

	// Nothing may outlive a run: no temporary directory, no goroutine.
	left, err := filepath.Glob(filepath.Join(out, "tmp-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("temporary directories left behind: %v %v", left, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

func TestServeMixedNoticesALostAcknowledgedBatch(t *testing.T) {
	spec := testSpec(t)
	res, err := run(spec, "serve_mixed", scales["smoke"], 1, 0.1, false, t.TempDir(), func(w workload) {
		c := w.(*serveMixed).conns[0]
		c.live = append(c.live, newBatch(ingestID(77_000_000, 100), 100)) // acknowledged, as far as the session knows
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Error("ingest misses a batch a session believes acknowledged, and no check failed")
	}
}

func TestVerdict(t *testing.T) {
	mk := func(better string, values ...float64) *series {
		s := &series{Better: better, Values: values, Median: median(values), Spread: spread(values)}
		return s
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 130, 60, 100, 150, 80, 100}
	for _, c := range []struct {
		name     string
		old, new *series
		want     string
	}{
		{"within the bound", mk("lower", steady...), mk("lower", scaled(1.05)...), "same"},
		{"slower by more than the bound", mk("lower", steady...), mk("lower", scaled(1.2)...), "worse"},
		{"faster", mk("lower", steady...), mk("lower", scaled(0.5)...), "same"},
		{"higher is better and it fell", mk("higher", steady...), mk("higher", scaled(0.8)...), "worse"},
		{"spread wider than the bound", mk("lower", steady...), mk("lower", noisy...), "unresolved"},
	} {
		if _, got := verdict("unit_s", c.old, c.new, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, got := verdict("setup_s", mk("lower", steady...), mk("lower", noisy...), 0.1); got != "same" {
		t.Errorf("setup_s has no spread requirement: verdict %s, want same", got)
	}
}

func TestCompareFailsWhenAnOutputChanged(t *testing.T) {
	spec := testSpec(t)
	report := func(sha string) string {
		rep := suiteReport{Workloads: map[string]*suiteWorkload{}}
		for _, name := range workloadNames {
			sw := &suiteWorkload{EndToEnd: map[string]*series{}}
			for _, d := range spec.EndToEnd {
				sw.EndToEnd[d.Name] = &series{Better: d.Better, Median: 1}
			}
			rep.Workloads[name] = sw
		}
		rep.Workloads["voter_indb"].Outputs = map[string]map[string]string{"1": {"model_sha256": sha}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := compareReports(spec, report("aa"), report("aa"), true); err != nil {
		t.Errorf("identical reports: %v", err)
	}
	if err := compareReports(spec, report("aa"), report("bb"), false); err == nil {
		t.Error("the model changed between two reports and -compare passed")
	}
}
