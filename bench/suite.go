package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// series is one end-to-end metric of one workload over the runs of a
// suite, with the quartiles the acceptance procedure uses.
type series struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

type suiteWorkload struct {
	Why       string         `json:"why"`
	Sizes     map[string]any `json:"sizes"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	// SpeedFactors is each run's machine speed factor: a reported time
	// multiplied by it is the time as clocked.
	SpeedFactors []float64          `json:"machine_speed_factors"`
	EndToEnd     map[string]*series `json:"end_to_end"`
	// Outputs holds each run's output digests under its seed. Two
	// reports of one benchmark must agree on them; -compare checks.
	Outputs   map[string]map[string]string `json:"outputs"`
	PerLayer  map[string]metric            `json:"per_layer"`
	TraceFile string                       `json:"trace_file"`
}

// figure1Row is one bar of the paper's Figure 1, assembled for
// information: access time measured by voter_external, fit and predict
// measured directly on ml by voter_indb's traced run (the code every
// external placement would share), and the in-database pipeline.
type figure1Row struct {
	Placement string  `json:"placement"`
	AccessS   float64 `json:"access_s"`
	TrainS    float64 `json:"train_s"`
	PredictS  float64 `json:"predict_s"`
	TotalS    float64 `json:"total_s"`
}

// suiteRuns is the number of untraced runs per workload, fixed by the
// acceptance procedure.
const suiteRuns = 10

type suiteReport struct {
	Env        environment               `json:"env"`
	RunSeconds float64                   `json:"run_seconds"`
	Runs       int                       `json:"runs_per_workload"`
	Order      []string                  `json:"order"`
	Workloads  map[string]*suiteWorkload `json:"workloads"`
	Figure1    []figure1Row              `json:"figure1"`
}

// runSuite does what the acceptance procedure does: every workload as
// a process of its own, suiteRuns times with seeds 1..suiteRuns, then
// once traced.
func runSuite(spec *benchSpec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	child := func(name string, seed int, trace int) (*runResult, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-scale", o.scale, "-spec", o.specPath, "-out", o.outDir, "-json")
		cmd.Env = append(os.Environ(), "BENCH_COMMIT="+commit)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res runResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line of output: %w", name, seed, err)
		}
		return &res, nil
	}

	order := slices.Clone(workloadNames)
	if o.reverse {
		slices.Reverse(order)
	}
	rep := &suiteReport{RunSeconds: o.seconds, Runs: suiteRuns, Order: order, Workloads: map[string]*suiteWorkload{}}
	for _, name := range order {
		sw := &suiteWorkload{EndToEnd: map[string]*series{}, Outputs: map[string]map[string]string{}, PerLayer: map[string]metric{}}
		for _, w := range spec.Workloads {
			if w.Name == name {
				sw.Why = w.Why
			}
		}
		for _, d := range spec.EndToEnd {
			sw.EndToEnd[d.Name] = &series{Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		for seed := 1; seed <= suiteRuns; seed++ {
			res, err := child(name, seed, 0)
			if err != nil {
				return err
			}
			rep.Env, sw.Sizes = res.Env, res.Sizes
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			sw.Failures = append(sw.Failures, res.Failures...)
			sw.Outputs[fmt.Sprint(seed)] = res.Outputs
			sw.SpeedFactors = append(sw.SpeedFactors, res.SpeedFactor)
			for n, s := range sw.EndToEnd {
				s.Values = append(s.Values, res.Metrics[n].Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: unit_s %.4f, failed %d of %d\n", name, seed, res.Metrics["unit_s"].Value, res.Failed, res.Attempted)
		}
		for _, s := range sw.EndToEnd {
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			s.Spread = spread(s.Values)
		}
		res, err := child(name, 1, 1)
		if err != nil {
			return err
		}
		sw.Attempted += res.Attempted
		sw.Failed += res.Failed
		sw.Failures = append(sw.Failures, res.Failures...)
		sw.PerLayer, sw.TraceFile = res.Metrics, res.TraceFile
		rep.Workloads[name] = sw
	}
	rep.Env.Seed = 0 // a suite spans seeds 1..suiteRuns
	rep.figure1(scales[o.scale])
	rep.print()
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.suite), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(o.suite, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for name, sw := range rep.Workloads {
		if sw.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, sw.Failed, sw.Attempted)
		}
	}
	return nil
}

func (rep *suiteReport) figure1(sc scale) {
	indb, ext := rep.Workloads["voter_indb"], rep.Workloads["voter_external"]
	if indb == nil || ext == nil {
		return
	}
	testRows := float64((sc.Voters + sc.TestModulus - 1) / sc.TestModulus)
	train := indb.PerLayer["ml.fit_us_per_row"].Value * (float64(sc.Voters) - testRows) / 1e6
	predict := indb.PerLayer["ml.predict_ns_per_row"].Value * testRows / 1e9
	wrangle := (ext.PerLayer["frame.join_ms"].Value + ext.PerLayer["frame.wrangle_ms"].Value) / 1e3
	// As clocked, like the per-layer numbers of the other rows.
	clocked := func(name string) float64 { return indb.EndToEnd[name].Median * median(indb.SpeedFactors) }
	rep.Figure1 = []figure1Row{{Placement: "vexdb (in-database)", TotalS: clocked("unit_s"),
		AccessS: clocked("store_ms") / 1e3, TrainS: clocked("heavy_ms") / 1e3, PredictS: clocked("light_ms") / 1e3}}
	for _, p := range placements {
		suffix := ".load_s"
		if p.socket {
			suffix = ".fetch_s"
		}
		access := ext.PerLayer[p.name+suffix].Value + wrangle
		rep.Figure1 = append(rep.Figure1, figure1Row{Placement: p.name, AccessS: access, TrainS: train, PredictS: predict, TotalS: access + train + predict})
	}
}

func (rep *suiteReport) print() {
	e := rep.Env
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s commit=%s scale=%s seeds 1..%d, %.0f s measured per run\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Scale, rep.Runs, rep.RunSeconds)
	fmt.Printf("env: %s; WAL sync %s; governor %s\n", e.Loop, e.WALSync, e.Governor)
	for _, name := range rep.Order {
		sw := rep.Workloads[name]
		sizes, _ := json.Marshal(sw.Sizes) // a map of numbers and strings
		fmt.Printf("\n%s: attempted %d, failed %d\n  sizes: %s\n", name, sw.Attempted, sw.Failed, sizes)
		fmt.Printf("  machine speed factor: median %.4f, spread %.4f\n", median(sw.SpeedFactors), spread(sw.SpeedFactors))
		fmt.Printf("  %-13s %12s %-4s %12s %12s %8s %6s %4s\n", "metric", "median", "unit", "q1", "q3", "spread", "bound", "runs")
		for _, n := range sortedKeys(sw.EndToEnd) {
			s := sw.EndToEnd[n]
			fmt.Printf("  %-13s %12.6g %-4s %12.6g %12.6g %8.4f %6.2f %4d\n", n, s.Median, s.Unit, s.Q1, s.Q3, s.Spread, s.Bound, len(s.Values))
		}
		for _, k := range sortedKeys(sw.Outputs["1"]) {
			fmt.Printf("  output (seed 1) %s: %s\n", k, sw.Outputs["1"][k])
		}
		fmt.Printf("  per layer (one traced run, seed 1; spans in %s):\n", sw.TraceFile)
		for _, n := range sortedKeys(sw.PerLayer) {
			if m := sw.PerLayer[n]; m.Value != 0 {
				fmt.Printf("    %-34s %14.6g %s\n", n, m.Value, m.Unit)
			}
		}
	}
	if len(rep.Figure1) > 0 {
		fmt.Printf("\nFigure 1 (information, not gated): seconds per placement\n  %-22s %10s %10s %10s %10s\n", "placement", "access", "train", "predict", "total")
		for _, r := range rep.Figure1 {
			fmt.Printf("  %-22s %10.4f %10.4f %10.4f %10.4f\n", r.Placement, r.AccessS, r.TrainS, r.PredictS, r.TotalS)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func loadReport(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suiteReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict judges one workload × end-to-end metric of two reports by
// the rule of the choosing-metrics guide: a spread wider than the bound
// leaves the pair unresolved; otherwise the new median may be worse
// than the old by at most the bound. setup_s, the median of three
// samples a run, is judged by its medians alone, as the acceptance
// procedure judges it.
func verdict(name string, old, new *series, bound float64) (delta float64, status string) {
	delta = new.Median/old.Median - 1
	if old.Better == "higher" {
		delta = old.Median/new.Median - 1
	}
	switch {
	case name != "setup_s" && max(old.Spread, new.Spread) > bound:
		return delta, "unresolved"
	case delta > bound:
		return delta, "worse"
	default:
		return delta, "same"
	}
}

// errWorse makes -compare exit non-zero.
type errWorse struct{ worse, unresolved int }

func (e errWorse) Error() string {
	return fmt.Sprintf("%d metrics worse than their bound allows or outputs changed, %d unresolved", e.worse, e.unresolved)
}

// compareReports prints, per workload and end-to-end metric, both
// medians, the change and the bound. It fails on any worse, on more
// failed operations and on any output digest that differs for the same
// seed; with strict (the A/A gate) also on any unresolved.
func compareReports(spec *benchSpec, oldPath, newPath string, strict bool) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s (commit %s, nproc %d)\nnew: %s (commit %s, nproc %d)\n",
		oldPath, oldRep.Env.Commit, oldRep.Env.NumCPU, newPath, newRep.Env.Commit, newRep.Env.NumCPU)
	fmt.Printf("%-15s %-13s %12s %12s %8s %6s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "spread o", "spread n", "verdict")
	var bad errWorse
	for _, name := range workloadNames {
		o, n := oldRep.Workloads[name], newRep.Workloads[name]
		if o == nil || n == nil {
			return fmt.Errorf("workload %s is missing from a report", name)
		}
		if n.Failed > o.Failed {
			fmt.Printf("%-15s failed operations rose from %d to %d\n", name, o.Failed, n.Failed)
			bad.worse++
		}
		for _, seed := range sortedKeys(o.Outputs) {
			for _, k := range sortedKeys(o.Outputs[seed]) {
				if was, is := o.Outputs[seed][k], n.Outputs[seed][k]; was != is {
					fmt.Printf("%-15s seed %s: output %s was %s, is %s\n", name, seed, k, was, is)
					bad.worse++
				}
			}
		}
		for _, d := range spec.EndToEnd {
			os, ns := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			if os == nil || ns == nil {
				return fmt.Errorf("%s: metric %s is missing from a report", name, d.Name)
			}
			delta, status := verdict(d.Name, os, ns, d.Bound)
			switch status {
			case "worse":
				bad.worse++
			case "unresolved":
				bad.unresolved++
			}
			fmt.Printf("%-15s %-13s %12.6g %12.6g %+7.2f%% %6.2f %8.4f %8.4f  %s\n",
				name, d.Name, os.Median, ns.Median, 100*delta, d.Bound, os.Spread, ns.Spread, status)
		}
	}
	if bad.worse > 0 || (strict && bad.unresolved > 0) {
		return bad
	}
	return nil
}
