package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// scale sizes every workload. Sizes were chosen so that one run (three
// set-ups, a warm-up unit, the measured phase) fits the time the
// benchmark contract allows per run while spill, segment pruning and
// lease growth still happen; README.md gives the sizes the issue asked
// for and why these are smaller.
type scale struct {
	Name string

	// voter_indb, voter_external
	Voters, Precincts, Columns, Features int
	Trees, Depth, TestModulus            int
	// ExtraSteps repeats the wrangle and the predict statements after
	// each contiguous pipeline, so the short phases get more samples
	// than the long one.
	ExtraSteps int

	// sql_mem, sql_spill
	Events, Dim int
	SpillBudget int64

	// serve_mixed
	ServeEvents, IngestRows, WriteRows int
	PoolBytes                          int64
	MaxQueued                          int
	// ScriptOps is the length of one connection's script; its class
	// mix is fixed in serve.go.
	ScriptOps int
}

var scales = map[string]scale{
	"full": {
		Name:   "full",
		Voters: 40_000, Precincts: 2751, Columns: 96, Features: 6,
		Trees: 16, Depth: 10, TestModulus: 4, ExtraSteps: 4,
		Events: 256_000, Dim: 64_000, SpillBudget: 1280 << 10,
		ServeEvents: 250_000, IngestRows: 100_000, WriteRows: 1000,
		PoolBytes: 4 << 20, MaxQueued: 8, ScriptOps: 40,
	},
	// smoke finishes in a blink; the tests use it. It is too small for
	// its timings to mean anything.
	"smoke": {
		Name:   "smoke",
		Voters: 2_000, Precincts: 97, Columns: 12, Features: 4,
		Trees: 4, Depth: 6, TestModulus: 4, ExtraSteps: 1,
		Events: 32_000, Dim: 32_000, SpillBudget: 256 << 10,
		ServeEvents: 20_000, IngestRows: 4_000, WriteRows: 100,
		PoolBytes: 512 << 10, MaxQueued: 8, ScriptOps: 40,
	},
}

// serveConnections is C: the closed-loop sessions serve_mixed runs.
func serveConnections() int { return min(runtime.NumCPU(), 4) }

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. The bounds live there, not in code:
// the program reads them to print them beside the values and to judge
// -compare.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) perLayer(name string) *metricDecl {
	for i := range s.PerLayer {
		if s.PerLayer[i].Name == name {
			return &s.PerLayer[i]
		}
	}
	return nil
}

// environment is the machine and configuration block every report
// carries, so that no number is read without them.
type environment struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"git_commit"`
	Seed        int64  `json:"seed"`
	Scale       string `json:"scale"`
	Connections int    `json:"serve_connections"`
	WALSync     string `json:"wal_sync_mode"`
	Governor    string `json:"governor"`
	Loop        string `json:"load_model"`
}

func currentEnv(sc scale, seed int64) environment {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	c := serveConnections()
	return environment{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit,
		Seed:        seed,
		Scale:       sc.Name,
		Connections: c,
		WALSync:     "group (vexdb.SyncGroup, the default)",
		Governor:    fmt.Sprintf("PoolBytes=%d MaxActive=%d MaxQueued=%d ReclaimPolicy=fair", sc.PoolBytes, c, sc.MaxQueued),
		Loop:        fmt.Sprintf("closed loop: embedded workloads have one caller, serve_mixed has %d sessions that each wait for their reply", c),
	}
}
