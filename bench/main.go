// Command bench is vexdb's one benchmark: five workloads (the paper's
// Figure 1 pipeline inside the database and through the six external
// placements, the SQL operator mix in memory and spilled, governed
// durable serving), every output checked against an oracle, and a
// traced run that attributes time to the layers. BENCHMARK.json at the
// repository root names the metrics and their regression bounds;
// README.md in this directory says why each was chosen.
//
//	go run -C bench . -workload sql_mem -seed 1 -seconds 20 -trace 0
//	go run -C bench . -suite out/report.json     # every workload, ten seeds: what aa.sh runs
//	go run -C bench . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"vexdb"
)

// workload is one of the five scenarios. The runner calls setup, then
// unit until the measured phase is over, then layers (traced run
// only), then finish.
type workload interface {
	// setup generates the inputs from the seed, loads them, starts
	// whatever serves them and computes the oracles.
	setup() error
	// unit does one fixed piece of work, timing its statements into
	// the recorder's unit, light, heavy and store classes and checking
	// every output.
	unit(tr *tracer)
	// layers fills the per-layer metrics from the spans and from
	// direct probes of the layers.
	layers(tr *tracer, m map[string]float64)
	// outputs are digests of what the workload computed that depend on
	// the seed and the scale only. The run checks them against oracles
	// the same engine produced; recording them lets -compare see a
	// change that moved result and oracle together.
	outputs() map[string]string
	// save puts on disk, after the warm-up unit, what a restart would
	// open: fixed work, whatever the measured phase gets through.
	save() (*saved, error)
	// finish drains and runs the checks that need a quiet system.
	finish() error
	// close releases what setup acquired, without any check.
	close()
	// sizes describes the data relative to the memory it may use.
	sizes() map[string]any
}

var workloadNames = []string{"voter_indb", "voter_external", "sql_mem", "sql_spill", "serve_mixed"}

func newWorkload(name string, sc scale, seed int64, dir string, traced bool, rec *recorder) (workload, error) {
	switch name {
	case "voter_indb":
		return &voterInDB{sc: sc, seed: seed, dir: dir, rec: rec}, nil
	case "voter_external":
		return &voterExternal{sc: sc, seed: seed, dir: dir, rec: rec}, nil
	case "sql_mem":
		return &sqlMix{sc: sc, seed: seed, dir: dir, rec: rec}, nil
	case "sql_spill":
		return &sqlMix{sc: sc, seed: seed, dir: dir, rec: rec, spill: true}, nil
	case "serve_mixed":
		return &serveMixed{sc: sc, seed: seed, dir: dir, rec: rec, traced: traced}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// recorder gathers latency samples (milliseconds, by class) and the
// operation counts of one run. Safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	attempted int64
	failed    int64
	failures  []string
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) add(class string, d time.Duration) {
	r.mu.Lock()
	r.samples[class] = append(r.samples[class], float64(d)/1e6)
	r.mu.Unlock()
}

func (r *recorder) get(class string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[class]...)
}

// swapSamples installs another sample set and returns the one it
// replaces.
func (r *recorder) swapSamples(next map[string][]float64) map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.samples
	r.samples = next
	return old
}

// op counts one attempted operation; a non-nil err (a statement error,
// a refusal, a fingerprint mismatch, a lost row) counts it failed. It
// reports whether the operation succeeded.
func (r *recorder) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
	return err == nil
}

// check is op for a correctness condition.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	if ok {
		return r.op(nil)
	}
	return r.op(fmt.Errorf(format, args...))
}

// saved is a database on disk that the run opens again after every
// measured unit, as a restart would. A recovery sample runs from the
// open to the last answer of the summaries, queries that scan the saved
// tables, so that a load which leaves its work to the first scan is
// still charged for it. The cycles are spread over the measured phase,
// as every other sample is, because this machine has loud phases of a
// few seconds: 25 cycles in a row sit inside one or outside, and did.
type saved struct {
	open      func() (*vexdb.DB, error)
	summaries []string
	want      []uint64 // the summaries' digests on the database that was saved
}

// saveDir saves an embedded database under dir.
func saveDir(db *vexdb.DB, dir string, summaries ...string) (*saved, error) {
	s := &saved{open: func() (*vexdb.DB, error) { return vexdb.OpenDir(dir) }, summaries: summaries}
	if err := s.expect(db); err != nil {
		return nil, err
	}
	return s, db.SaveDir(dir)
}

// expect takes db's answers to the summaries as the ones every cycle
// must give.
func (s *saved) expect(db *vexdb.DB) error {
	s.want = make([]uint64, len(s.summaries))
	for i, q := range s.summaries {
		var err error
		if s.want[i], err = embeddedDigest(db, q); err != nil {
			return err
		}
	}
	return nil
}

func (s *saved) cycle(rec *recorder) {
	start := time.Now()
	db, err := s.open()
	if !rec.op(err) {
		return
	}
	got := make([]uint64, len(s.summaries))
	for i, q := range s.summaries {
		if got[i], err = embeddedDigest(db, q); err != nil {
			break
		}
	}
	d := time.Since(start)
	if rec.op(err) {
		rec.add("recovery", d)
		rec.check(slices.Equal(got, s.want), "reopened: %q digest to %x, on the database that was saved to %x", s.summaries, got, s.want)
	}
	rec.op(db.Close())
}

// metric is one reported number: for an end-to-end metric, the given
// percentile of that many samples, divided by the run's machine speed
// factor (see calibrator).
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Percentile float64 `json:"percentile,omitempty"`
	Samples    int     `json:"samples,omitempty"`
}

// tail stands for the percentile tailPercentile gives.
const tail = -1

// tailPercentile is the percentile the tail metrics report. A
// serve_mixed run takes about 700 light and 140 heavy samples, so at
// least ten lie beyond p95 and p90. An embedded workload has one caller
// and takes 13 to 95 samples, too few for those; it reports the upper
// quartile.
func tailPercentile(workload, class string) float64 {
	switch {
	case workload != "serve_mixed":
		return 75
	case class == "light":
		return 95
	default:
		return 90
	}
}

// endToEnd says which class of samples each end-to-end metric is taken
// from, and at which percentile.
var endToEnd = map[string]struct {
	class string
	pct   float64
}{
	"setup_s":       {"setup", 50},
	"unit_s":        {"unit", 50},
	"light_ms":      {"light", 50},
	"light_tail_ms": {"light", tail},
	"heavy_ms":      {"heavy", 50},
	"heavy_tail_ms": {"heavy", tail},
	"store_ms":      {"store", 50},
	"recovery_s":    {"recovery", 50},
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload    string            `json:"workload"`
	Env         environment       `json:"env"`
	Traced      bool              `json:"traced"`
	SpeedFactor float64           `json:"machine_speed_factor"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Outputs     map[string]string `json:"outputs"`
	Sizes       map[string]any    `json:"sizes"`
	TraceFile   string            `json:"trace_file,omitempty"`
}

// setupRepeats is how often an untraced run sets up; setup_s is the
// median.
const setupRepeats = 3

// run executes one workload for the given measured time. Untraced, it
// sets up setupRepeats times and reports the end-to-end metrics.
// Traced, it sets up once, spends half the time alternating untraced
// units with units that put a span around every call into a layer,
// then probes the layers and reports the per-layer metrics.
//
// tamper, when not nil, runs between set-up and the first unit; the
// tests use it to hand a workload a deliberately wrong oracle and see
// the checks trip.
func run(spec *benchSpec, name string, sc scale, seed int64, seconds float64, traced bool, outDir string, tamper func(workload)) (*runResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	var speed []float64

	rec := newRecorder()
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var w workload
	var setups []time.Duration
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if w, err = newWorkload(name, sc, seed, dir, traced, rec); err != nil {
			return nil, err
		}
		speed = append(speed, cal.sample())
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start))
	}
	defer w.close()
	if tamper != nil {
		tamper(w)
	}

	// One unit before the clock starts lets caches fill and lazy
	// set-up finish. Its checks count; its timings do not.
	w.unit(nil)
	rec.swapSamples(map[string][]float64{})
	for _, d := range setups {
		rec.add("setup", d)
	}
	sv, err := w.save()
	if err != nil {
		return nil, fmt.Errorf("%s save: %w", name, err)
	}

	measure := time.Duration(seconds * float64(time.Second))
	var tr *tracer
	var untraced []float64
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if traced {
		// Half the time, in pairs of an untraced and a traced unit, so
		// that the two see the same machine and their difference is the
		// overhead of tracing. The order within a pair alternates:
		// serve_mixed takes UPDATE and DELETE in turns from unit to unit,
		// and a fixed order would hand every DELETE to the same side.
		tr = newTracer()
		for deadline, i := time.Now().Add(measure/2), 0; i == 0 || time.Now().Before(deadline); i++ {
			speed = append(speed, cal.sample())
			for _, spans := range [2]bool{i%2 == 1, i%2 == 0} {
				if spans {
					w.unit(tr)
					continue
				}
				kept := rec.swapSamples(map[string][]float64{})
				w.unit(nil)
				untraced = append(untraced, rec.swapSamples(kept)["unit"]...)
			}
		}
	} else {
		for deadline, first := time.Now().Add(measure), true; first || time.Now().Before(deadline); first = false {
			speed = append(speed, cal.sample())
			w.unit(nil)
			sv.cycle(rec)
		}
	}

	res := &runResult{Workload: name, Env: currentEnv(sc, seed), Traced: traced, Metrics: map[string]metric{}, Outputs: w.outputs(), Sizes: w.sizes(), SpeedFactor: median(speed)}
	layer := map[string]float64{}
	if traced {
		w.layers(tr, layer)
	}
	if err := w.finish(); err != nil {
		rec.op(fmt.Errorf("%s finish: %w", name, err))
	}
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			layer["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024
		}
		layer["process.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		layer["process.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		layer["trace.overhead_frac"] = median(rec.get("unit"))/median(untraced) - 1
		layer["machine.speed_factor"] = res.SpeedFactor
		for k := range layer {
			if spec.perLayer(k) == nil {
				return nil, fmt.Errorf("per-layer metric %s is measured but BENCHMARK.json does not declare it", k)
			}
		}
		for _, d := range spec.PerLayer {
			res.Metrics[d.Name] = metric{Value: layer[d.Name], Unit: d.Unit}
		}
		if res.TraceFile, err = tr.write(outDir, name, res.Env); err != nil {
			return nil, err
		}
	} else {
		for _, d := range spec.EndToEnd {
			from, ok := endToEnd[d.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json declares end-to-end metric %s, which this program does not measure", d.Name)
			}
			if from.pct == tail {
				from.pct = tailPercentile(name, from.class)
			}
			s := rec.get(from.class)
			v := metric{Value: percentile(s, from.pct), Unit: d.Unit, Percentile: from.pct, Samples: len(s)}
			if d.Unit == "s" {
				v.Value /= 1e3
			}
			rec.check(v.Value > 0, "%s: %s has no samples", name, d.Name)
			v.Value /= res.SpeedFactor
			res.Metrics[d.Name] = v
		}
	}
	res.Attempted, res.Failed, res.Failures = rec.attempted, rec.failed, rec.failures
	res.Correct = rec.failed == 0
	return res, nil
}

// print writes the run as text, then, as the last line, the JSON object
// the benchmark contract asks for (or, for -suite, the whole run).
func (res *runResult) print(spec *benchSpec, fullJSON bool) error {
	e := res.Env
	fmt.Printf("workload %s  seed %d  scale %s  traced %v\n", res.Workload, e.Seed, e.Scale, res.Traced)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s\n", e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Printf("env: %s; WAL sync %s; governor %s\n", e.Loop, e.WALSync, e.Governor)
	sizes, err := json.Marshal(res.Sizes)
	if err != nil {
		return err
	}
	fmt.Printf("sizes: %s\n", sizes)
	decls := spec.EndToEnd
	if res.Traced {
		decls = spec.PerLayer
		fmt.Printf("trace: %s\n", res.TraceFile)
	}
	fmt.Printf("machine speed factor %.4f: calibration kernels' time over nominal; end-to-end times are as clocked, divided by it\n", res.SpeedFactor)
	for _, k := range sortedKeys(res.Outputs) {
		fmt.Printf("output %s: %s\n", k, res.Outputs[k])
	}
	fmt.Printf("%-34s %16s %-8s %12s %6s\n", "metric", "value", "unit", "samples", "bound")
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	for _, d := range decls {
		m := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprint(d.Bound)
		}
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("p%g of %d", m.Percentile, m.Samples)
		}
		fmt.Printf("%-34s %16.6g %-8s %12s %6s\n", d.Name, m.Value, m.Unit, samples, bound)
		line.Metrics[d.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	fmt.Printf("operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  failed: %s\n", f)
	}
	var last any = line
	if fullJSON {
		last = res
	}
	out, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	specPath  string
	outDir    string
	fullJSON  bool
	suite     string
	reverse   bool
	compare   bool
	strict    bool
	arguments []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generators; the engine sees only what they generate")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics, 0 reports the end-to-end metrics")
	flag.StringVar(&o.scale, "scale", "full", "data sizes: full or smoke")
	flag.StringVar(&o.specPath, "spec", filepath.Join("..", "BENCHMARK.json"), "the benchmark description")
	flag.StringVar(&o.outDir, "out", "out", "directory for trace files and temporary data")
	flag.BoolVar(&o.fullJSON, "json", false, "print the whole run (environment, sizes, failures) as the last line, as -suite wants it")
	flag.StringVar(&o.suite, "suite", "", "run every workload ten times (seeds 1..10) and once traced, each run a process, and write the report here")
	flag.BoolVar(&o.reverse, "reverse", false, "with -suite: take the workloads in reverse order")
	flag.BoolVar(&o.compare, "compare", false, "compare two -suite reports given as arguments: old.json new.json")
	flag.BoolVar(&o.strict, "strict", false, "with -compare: fail on unresolved pairs too (the A/A gate)")
	flag.Parse()
	o.arguments = flag.Args()
	if err := o.dispatch(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) dispatch() error {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.arguments) != 2 {
			return fmt.Errorf("-compare takes two reports: old.json new.json")
		}
		return compareReports(spec, o.arguments[0], o.arguments[1], o.strict)
	}
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.suite != "" {
		return runSuite(spec, o)
	}
	if o.workload == "" {
		return fmt.Errorf("give -workload (one of %v), -suite or -compare", workloadNames)
	}
	res, err := run(spec, o.workload, sc, o.seed, o.seconds, o.trace != 0, o.outDir, nil)
	if err != nil {
		return err
	}
	return res.print(spec, o.fullJSON)
}
