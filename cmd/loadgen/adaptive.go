// The -exp adaptive experiment measures adaptive memory leases
// in-process (no wire protocol in the way): one mixed workload
// (concurrent heavy aggregations + light scans, far fewer clients than
// MaxActive) against a governed pool under ReclaimPolicy "static" vs
// "fair". Pool utilization is sampled throughout; the fair policy must
// actually grow leases and reach strictly higher utilization.
//
// It used to have a second leg, hybrid partition eviction against
// routing every post-overflow row to disk. Hybrid eviction is now the
// only spill mode (exec.HybridAggEnabled is gone), so there is nothing
// left to compare; the report's note says so, and the executor's
// TestHybridAggKeepsPartitionsResident still guards the resident
// partitions.
//
// The experiment self-asserts: violations make loadgen exit non-zero,
// so the CI smoke job is a regression gate, not just a report
// generator.
package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vexdb"
	"vexdb/internal/workload"
)

const (
	// Heavy aggregation: ~rows/8 groups, each carrying a DISTINCT set,
	// so the hash-agg state outgrows a fair-share lease. val is dyadic,
	// so sums are exact and results fingerprint identically at any
	// worker count.
	heavyAggSQL  = "SELECT key, count(*) AS n, sum(val) AS sv, count(DISTINCT event_id) AS d FROM events GROUP BY key"
	lightScanSQL = "SELECT count(*) AS n, max(key) AS hi FROM events WHERE key % 7 = 0"

	// The governed pool. MaxActive 8 with only 2
	// clients means static fair-share leases pin utilization at 2/8 of
	// the pool; the fair policy can grow toward the whole pool.
	adaptivePool      = 16 << 20
	adaptiveMaxActive = 8
	adaptiveClients   = 2
)

type policyResult struct {
	Policy          string  `json:"policy"`
	Queries         int64   `json:"queries"`
	MeanUtilization float64 `json:"mean_utilization"`
	PeakUtilization float64 `json:"peak_utilization"`
	Grows           int64   `json:"grows"`
	GrownBytes      int64   `json:"grown_bytes"`
	Shrinks         int64   `json:"shrinks"`
	Reclaims        int64   `json:"reclaims"`
	HeavyP50MS      float64 `json:"heavy_p50_ms"`
	HeavyP99MS      float64 `json:"heavy_p99_ms"`
	HeavyMaxMS      float64 `json:"heavy_max_ms"`
}

type adaptiveReport struct {
	Note   string `json:"note"`
	Config struct {
		Rows       int   `json:"rows"`
		Workers    int   `json:"workers"`
		Seed       int64 `json:"seed"`
		Pool       int64 `json:"lease_pool_bytes"`
		MaxActive  int   `json:"lease_max_active"`
		Clients    int   `json:"lease_clients"`
		Iterations int   `json:"lease_iterations"`
	} `json:"config"`
	Leases     []policyResult `json:"leases"`
	Violations []string       `json:"violations"`
}

// runAdaptive is the -exp adaptive entry point.
func runAdaptive(cfg config) error {
	rep := &adaptiveReport{Note: "lease-policy comparison only: the hybrid-vs-route-everything spill leg went with exec.HybridAggEnabled (hybrid eviction is the only spill mode)"}
	rep.Config.Rows = cfg.rows
	rep.Config.Workers = cfg.workers
	rep.Config.Seed = cfg.seed
	rep.Config.Pool = adaptivePool
	rep.Config.MaxActive = adaptiveMaxActive
	rep.Config.Clients = adaptiveClients
	rep.Config.Iterations = cfg.requests

	for _, policy := range []string{"static", "fair"} {
		res, err := leaseExperiment(cfg, rep, policy)
		if err != nil {
			return err
		}
		rep.Leases = append(rep.Leases, res)
	}
	gateLeases(rep)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("loadgen: adaptive experiment: utilization %.2f static -> %.2f fair (report: %s)\n",
		rep.Leases[0].MeanUtilization, rep.Leases[1].MeanUtilization, cfg.out)
	if len(rep.Violations) > 0 {
		return fmt.Errorf("violations: %s", strings.Join(rep.Violations, "; "))
	}
	return nil
}

func adaptiveDB(cfg config, dir string, opts vexdb.Options) (*vexdb.DB, error) {
	opts.TempDir = dir
	opts.Parallelism = cfg.workers
	opts.QueryTimeout = cfg.queryTimeout
	db := vexdb.OpenOptions(opts)
	events := workload.GenerateEvents(cfg.rows, cfg.rows/8+1, 1.1, cfg.seed)
	if err := db.CreateTableFrom("events", workload.FrameToTable(events)); err != nil {
		return nil, err
	}
	return db, nil
}

// fingerprintQuery hashes every cell of the result in order, exactly
// like the storm's wire-level fingerprints.
func fingerprintQuery(db *vexdb.DB, sql string) (uint64, error) {
	tab, err := db.Query(sql)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			h.Write([]byte(tab.Cols[c].Get(r).String()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
	return h.Sum64(), nil
}

// leaseExperiment runs the mixed workload against a governed pool
// under one reclaim policy, sampling pool utilization while heavy
// aggregations and light scans churn on adaptiveClients connections.
func leaseExperiment(cfg config, rep *adaptiveReport, policy string) (policyResult, error) {
	res := policyResult{Policy: policy}
	dir, err := os.MkdirTemp("", "loadgen-adaptive-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	db, err := adaptiveDB(cfg, dir, vexdb.Options{
		Governor: &vexdb.GovernorConfig{
			PoolBytes:     adaptivePool,
			MaxActive:     adaptiveMaxActive,
			MaxQueued:     64,
			ReclaimPolicy: policy,
		},
	})
	if err != nil {
		return res, err
	}

	baseFP, err := fingerprintQuery(db, heavyAggSQL)
	if err != nil {
		return res, fmt.Errorf("%s baseline: %w", policy, err)
	}

	// Utilization sampler: runs until the workload goroutines finish.
	done := make(chan struct{})
	var sampleMu sync.Mutex
	var sampleSum float64
	var sampleN int64
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				u := db.GovernorStats().Utilization
				sampleMu.Lock()
				sampleSum += u
				sampleN++
				sampleMu.Unlock()
			}
		}
	}()

	var mu sync.Mutex
	var heavyLat []time.Duration
	var wg sync.WaitGroup
	errs := make(chan error, adaptiveClients)
	for c := 0; c < adaptiveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < cfg.requests; i++ {
				t0 := time.Now()
				fp, err := fingerprintQuery(db, heavyAggSQL)
				if err != nil {
					errs <- fmt.Errorf("%s client %d: %w", policy, c, err)
					return
				}
				d := time.Since(t0)
				mu.Lock()
				heavyLat = append(heavyLat, d)
				res.Queries++
				mu.Unlock()
				if fp != baseFP {
					errs <- fmt.Errorf("%s client %d: heavy fingerprint diverged", policy, c)
					return
				}
				if _, err := db.Query(lightScanSQL); err != nil {
					errs <- fmt.Errorf("%s client %d scan: %w", policy, c, err)
					return
				}
				mu.Lock()
				res.Queries++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(done)
	select {
	case err := <-errs:
		return res, err
	default:
	}

	st := db.GovernorStats()
	res.PeakUtilization = st.PeakUtilization
	res.Grows = st.Grows
	res.GrownBytes = st.GrownBytes
	res.Shrinks = st.Shrinks
	res.Reclaims = st.Reclaims
	sampleMu.Lock()
	if sampleN > 0 {
		res.MeanUtilization = sampleSum / float64(sampleN)
	}
	sampleMu.Unlock()

	sort.Slice(heavyLat, func(i, j int) bool { return heavyLat[i] < heavyLat[j] })
	pct := func(p float64) float64 {
		if len(heavyLat) == 0 {
			return 0
		}
		return float64(heavyLat[int(p*float64(len(heavyLat)-1))].Microseconds()) / 1000
	}
	res.HeavyP50MS = pct(0.50)
	res.HeavyP99MS = pct(0.99)
	res.HeavyMaxMS = pct(1.0)

	if st.LeasedBytes != 0 || st.Active != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%s: governor not drained: %d active, %d bytes leased", policy, st.Active, st.LeasedBytes))
	}
	if st.PeakLeasedBytes > adaptivePool {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%s: peak leased %d exceeds pool %d", policy, st.PeakLeasedBytes, adaptivePool))
	}
	if policy == "static" && (st.Grows != 0 || st.Shrinks != 0) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("static policy grew/shrunk leases: %d/%d", st.Grows, st.Shrinks))
	}
	return res, nil
}

// gateLeases asserts the adaptive-lease acceptance criteria once both
// policies have run: the fair policy must actually grow leases and
// lift pool utilization above the static fair-share ceiling.
func gateLeases(rep *adaptiveReport) {
	if len(rep.Leases) != 2 {
		return // an earlier error already aborted the run
	}
	static, fair := rep.Leases[0], rep.Leases[1]
	if fair.Grows == 0 {
		rep.Violations = append(rep.Violations, "fair policy never grew a lease")
	}
	if fair.PeakUtilization <= static.PeakUtilization {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("fair peak utilization %.3f not above static %.3f", fair.PeakUtilization, static.PeakUtilization))
	}
	if fair.MeanUtilization <= static.MeanUtilization {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("fair mean utilization %.3f not above static %.3f", fair.MeanUtilization, static.MeanUtilization))
	}
}
