// Command voterbench regenerates the paper's evaluation: Figure 1
// (the voter-classification benchmark across seven data placements)
// and the ablation experiments E2-E5. Results print as aligned tables;
// the benchmark of record and its recorded baselines are described in
// bench/README.md.
//
// Usage:
//
//	voterbench [-rows N] [-precincts N] [-cols N] [-trees N] [-seed N]
//	           [-exp figure1|serialize|parallel|ensemble|protocols|ml|plan|all]
//	           [-dir PATH] [-json PATH]
//
// The ml experiment benchmarks the in-database TRAIN and CLASSIFY
// paths across worker counts; -json additionally writes the results
// as a machine-readable file (BENCH_ml.json) for CI tracking. The
// plan experiment measures the cost-based planner against the
// syntactic plan on a skewed multi-join (its -json report is
// BENCH_plan.json); it exits non-zero unless the cost-based plan is
// byte-identical, picks the expected join order, and wins by >= 2x.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"vexdb/internal/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	rows := flag.Int("rows", cfg.Voters, "voter row count (paper: 7500000)")
	precincts := flag.Int("precincts", cfg.Precincts, "precinct count")
	cols := flag.Int("cols", cfg.Columns, "total voter columns (paper: 96)")
	trees := flag.Int("trees", cfg.Estimators, "random forest size")
	seed := flag.Int64("seed", cfg.Seed, "deterministic seed")
	exp := flag.String("exp", "figure1", "experiment: figure1|serialize|parallel|morsel|ensemble|protocols|ml|plan|all")
	dir := flag.String("dir", "", "work directory (default: temp)")
	jsonPath := flag.String("json", "", "write ml experiment results as JSON to this path")
	flag.Parse()

	cfg.Voters = *rows
	cfg.Precincts = *precincts
	cfg.Columns = *cols
	cfg.Estimators = *trees
	cfg.Seed = *seed

	workDir := *dir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "voterbench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}

	fmt.Printf("preparing environment: %d voters x %d columns, %d precincts (dir %s)\n",
		cfg.Voters, cfg.Columns, cfg.Precincts, workDir)
	t0 := time.Now()
	env, err := workload.Setup(cfg, workDir)
	if err != nil {
		fatal(err)
	}
	defer env.Close()
	fmt.Printf("environment ready in %v\n\n", time.Since(t0).Round(time.Millisecond))

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	run("figure1", func() error { return runFigure1(env) })
	run("serialize", func() error { return runSerialize(env) })
	run("parallel", func() error { return runParallel(env) })
	run("morsel", func() error { return runMorsel(env) })
	run("ensemble", func() error { return runEnsemble(env) })
	run("protocols", func() error { return runProtocols(env) })
	run("ml", func() error { return runML(env, *jsonPath) })
	run("plan", func() error {
		path := *jsonPath
		if *exp == "all" {
			path = "" // -json names the ml report in all mode
		}
		return runPlan(path)
	})
}

func runFigure1(env *workload.Env) error {
	fmt.Println("Figure 1 — Voter Classification Benchmark")
	fmt.Println("(total pipeline time; 'wrangle' is the paper's gray load+preprocess bar)")
	fmt.Printf("%-30s %12s %12s %12s %12s %10s %8s\n",
		"method", "wrangle", "train", "predict", "TOTAL", "accuracy", "MAE")
	results, err := workload.Figure1(env)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-30s %12v %12v %12v %12v %10.3f %8.3f\n",
			r.Method,
			r.WrangleTotal().Round(time.Millisecond),
			r.Train.Round(time.Millisecond),
			r.Predict.Round(time.Millisecond),
			r.Total.Round(time.Millisecond),
			r.VoterAccuracy, r.PrecinctMAE)
	}
	fmt.Println()
	return nil
}

func runSerialize(env *workload.Env) error {
	fmt.Println("E2 — model (de)serialization overhead vs model size (paper §5.1)")
	fmt.Printf("%8s %12s %14s %14s %14s\n", "trees", "blob bytes", "serialize", "deserialize", "predict-20k")
	rows, err := workload.E2ModelSerialization(env, []int{1, 2, 4, 8, 16, 32, 64, 128})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %12d %14v %14v %14v\n",
			r.Trees, r.BlobBytes,
			r.Serialize.Round(time.Microsecond),
			r.Deserialize.Round(time.Microsecond),
			r.PredictOnce.Round(time.Microsecond))
	}
	fmt.Println()
	return nil
}

func runParallel(env *workload.Env) error {
	fmt.Println("E3 — parallel prediction UDF scaling")
	fmt.Printf("%8s %14s %10s\n", "workers", "elapsed", "speedup")
	var workers []int
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		workers = append(workers, w)
	}
	rows, err := workload.E3ParallelUDF(env, workers)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %14v %9.2fx\n", r.Workers, r.Elapsed.Round(time.Millisecond), r.Speedup)
	}
	fmt.Println()
	return nil
}

func runMorsel(env *workload.Env) error {
	fmt.Println("E6 — morsel-driven relational executor scaling (join + group-by, no UDFs)")
	fmt.Printf("%8s %14s %10s\n", "workers", "elapsed", "speedup")
	var workers []int
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		workers = append(workers, w)
	}
	rows, err := workload.E6MorselScaling(env, workers)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %14v %9.2fx\n", r.Workers, r.Elapsed.Round(time.Millisecond), r.Speedup)
	}
	fmt.Println()
	return nil
}

func runEnsemble(env *workload.Env) error {
	fmt.Println("E4 — stored-model meta-analysis and ensembles (paper §3.3)")
	res, err := workload.E4Ensemble(env)
	if err != nil {
		return err
	}
	for algo, acc := range res.PerModel {
		fmt.Printf("%-28s accuracy %.4f\n", algo, acc)
	}
	fmt.Printf("%-28s accuracy %.4f\n", "best-by-SQL-meta-analysis", res.BestByMeta)
	fmt.Printf("%-28s accuracy %.4f\n", "ensemble-majority", res.Majority)
	fmt.Printf("%-28s accuracy %.4f\n", "ensemble-confidence", res.Confidence)
	fmt.Println()
	return nil
}

func runProtocols(env *workload.Env) error {
	fmt.Println("E5 — client protocol comparison (full voters table transfer)")
	fmt.Printf("%-28s %10s %14s\n", "protocol", "rows", "elapsed")
	rows, err := workload.E5Protocols(env)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-28s %10d %14v\n", r.Protocol, r.Rows, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Println()
	return nil
}

// mlBenchJSON is the BENCH_ml.json schema: the machine (a speedup
// column means nothing without the core count behind it), the pipeline
// shape, one entry per worker count with train/classify ns-per-row and
// the model digest, and the cross-worker determinism verdict.
type mlBenchJSON struct {
	Benchmark       string  `json:"benchmark"`
	NProc           int     `json:"nproc"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Voters          int     `json:"voters"`
	Features        int     `json:"features"`
	Trees           int     `json:"trees"`
	MaxDepth        int     `json:"max_depth"`
	Seed            int64   `json:"seed"`
	TrainRows       int     `json:"train_rows"`
	ClassifyRows    int     `json:"classify_rows"`
	ModelsIdentical bool    `json:"models_identical"`
	Runs            []mlRun `json:"runs"`
}

type mlRun struct {
	Workers          int     `json:"workers"`
	TrainNs          int64   `json:"train_ns"`
	TrainNsPerRow    float64 `json:"train_ns_per_row"`
	TrainSpeedup     float64 `json:"train_speedup"`
	ClassifyNs       int64   `json:"classify_ns"`
	ClassifyNsPerRow float64 `json:"classify_ns_per_row"`
	ClassifySpeedup  float64 `json:"classify_speedup"`
	ModelSHA256      string  `json:"model_sha256"`
}

func runML(env *workload.Env, jsonPath string) error {
	fmt.Println("E7 — in-database ML: morsel-parallel TRAIN and streamed vectorized CLASSIFY")
	workers := []int{1}
	for w := 2; w <= 8 || w <= runtime.NumCPU(); w *= 2 {
		workers = append(workers, w)
	}
	res, err := workload.E7MLBench(env, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %12s %14s %10s %12s %14s %10s\n",
		"workers", "train", "train ns/row", "speedup", "classify", "clf ns/row", "speedup")
	for _, r := range res.Rows {
		fmt.Printf("%8d %12v %14.1f %9.2fx %12v %14.1f %9.2fx\n",
			r.Workers,
			r.Train.Round(time.Millisecond), r.TrainNsPerRow, r.TrainSpeedup,
			r.Classify.Round(time.Millisecond), r.ClassifyNsPerRow, r.ClassifySpeedup)
	}
	fmt.Printf("models byte-identical across worker counts: %v\n\n", res.ModelsIdentical)
	if !res.ModelsIdentical {
		return fmt.Errorf("ml: trained models differ across worker counts")
	}
	if jsonPath == "" {
		return nil
	}
	cfg := env.Cfg
	out := mlBenchJSON{
		Benchmark:       "voter-classification",
		NProc:           runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Voters:          cfg.Voters,
		Features:        cfg.Features,
		Trees:           cfg.Estimators,
		MaxDepth:        cfg.MaxDepth,
		Seed:            cfg.Seed,
		TrainRows:       res.TrainRows,
		ClassifyRows:    res.ClassifyRows,
		ModelsIdentical: res.ModelsIdentical,
	}
	for _, r := range res.Rows {
		out.Runs = append(out.Runs, mlRun{
			Workers:          r.Workers,
			TrainNs:          r.Train.Nanoseconds(),
			TrainNsPerRow:    r.TrainNsPerRow,
			TrainSpeedup:     r.TrainSpeedup,
			ClassifyNs:       r.Classify.Nanoseconds(),
			ClassifyNsPerRow: r.ClassifyNsPerRow,
			ClassifySpeedup:  r.ClassifySpeedup,
			ModelSHA256:      r.ModelDigest,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}

// planBenchJSON is the BENCH_plan.json schema: workload shape, the
// benchmarked query, per-planner wall clock and intermediate rows,
// and the verdicts the run is gated on.
type planBenchJSON struct {
	Benchmark     string    `json:"benchmark"`
	Events        int       `json:"events"`
	HotKeys       int       `json:"hot_keys"`
	DimRows       int       `json:"dim_rows"`
	Workers       int       `json:"workers"`
	Query         string    `json:"query"`
	Runs          []planRun `json:"runs"`
	Speedup       float64   `json:"speedup"`
	Identical     bool      `json:"identical_results"`
	ExpectedOrder bool      `json:"expected_join_order"`
}

type planRun struct {
	Planner          string `json:"planner"`
	Ns               int64  `json:"ns"`
	IntermediateRows int64  `json:"intermediate_rows"`
}

func runPlan(jsonPath string) error {
	fmt.Println("E8 — cost-based planning: skewed 3-table join, syntactic vs cost-based")
	res, err := workload.E8PlanBench(runtime.NumCPU())
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %14s %18s\n", "planner", "elapsed", "intermediate rows")
	for _, r := range []workload.PlanRun{res.Syntactic, res.CostBased} {
		fmt.Printf("%-12s %14v %18d\n", r.Planner, r.Elapsed.Round(time.Millisecond), r.IntermediateRows)
	}
	fmt.Printf("speedup %.2fx, identical results %v, expected join order %v\n\n",
		res.Speedup, res.Identical, res.ExpectedOrder)
	if res.Speedup < 2 {
		return fmt.Errorf("plan: cost-based speedup %.2fx below the 2x acceptance floor", res.Speedup)
	}
	if jsonPath == "" {
		return nil
	}
	out := planBenchJSON{
		Benchmark:     "cost-based-planning",
		Events:        res.Events,
		HotKeys:       res.HotKeys,
		DimRows:       res.DimRows,
		Workers:       res.Workers,
		Query:         res.Query,
		Speedup:       res.Speedup,
		Identical:     res.Identical,
		ExpectedOrder: res.ExpectedOrder,
		Runs: []planRun{
			{Planner: res.Syntactic.Planner, Ns: res.Syntactic.Elapsed.Nanoseconds(), IntermediateRows: res.Syntactic.IntermediateRows},
			{Planner: res.CostBased.Planner, Ns: res.CostBased.Elapsed.Nanoseconds(), IntermediateRows: res.CostBased.IntermediateRows},
		},
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voterbench:", err)
	os.Exit(1)
}
