// Package workload generates the paper's datasets: the North Carolina
// voter-classification inputs (Section 4) and a skewed event stream for
// the out-of-core operators. cmd/datagen and
// examples/voterclassification load them; the benchmark of record is
// bench/ (its own copy, so editing these cannot move its numbers).
//
// The original datasets (7.5M NC voters with 96 demographic columns;
// 2,751 precinct vote totals) are not redistributable, so a
// deterministic synthetic generator reproduces their shape: the same
// schema widths, the same join structure (voter.precinct_id ->
// precinct), per-precinct partisan lean driving both the voters'
// feature distributions and the weighted-random "true" labels. Only
// the sizes and statistical structure matter for the measured costs.
package workload

import (
	"fmt"
	"math"

	"vexdb/internal/frame"
	"vexdb/internal/vector"
)

// Config sizes the generated datasets. The zero value is not usable;
// start from DefaultConfig or TestConfig.
type Config struct {
	// Voters is the voter row count (paper: 7.5M).
	Voters int
	// Precincts is the precinct count (paper: 2,751).
	Precincts int
	// Columns is the total demographic column count including the
	// trained features (paper: 96).
	Columns int
	// Features is how many leading columns carry signal and feed the
	// classifier.
	Features int
	// Estimators is the random forest size (trees).
	Estimators int
	// MaxDepth bounds tree depth.
	MaxDepth int
	// Seed drives all generation and training deterministically.
	Seed int64
	// TestModulus splits train/test: rows with id % TestModulus == 0
	// are the test set (4 => 25% test).
	TestModulus int
}

// DefaultConfig is the full-scale shape scaled to a laptop: 150k
// voters (the paper's 7.5M shrunk 50x), everything else faithful.
func DefaultConfig() Config {
	return Config{
		Voters:      150_000,
		Precincts:   2751,
		Columns:     96,
		Features:    6,
		Estimators:  16,
		MaxDepth:    10,
		Seed:        1,
		TestModulus: 4,
	}
}

// TestConfig is small enough for unit tests.
func TestConfig() Config {
	return Config{
		Voters:      4000,
		Precincts:   97,
		Columns:     12,
		Features:    4,
		Estimators:  4,
		MaxDepth:    6,
		Seed:        1,
		TestModulus: 4,
	}
}

// rng is a local xorshift generator for data synthesis.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	v := uint64(seed)
	if v == 0 {
		v = 0x853C49E6748FEA9B
	}
	return &rng{s: v}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// GeneratePrecincts synthesizes the precinct votes dataset:
// (precinct_id, dem_votes, rep_votes) with partisan lean varying
// smoothly across precincts in [0.15, 0.85].
func GeneratePrecincts(cfg Config) *frame.DataFrame {
	r := newRNG(cfg.Seed * 31)
	ids := make([]int64, cfg.Precincts)
	dem := make([]int64, cfg.Precincts)
	rep := make([]int64, cfg.Precincts)
	for p := 0; p < cfg.Precincts; p++ {
		ids[p] = int64(p)
		lean := 0.15 + 0.7*float64(p)/float64(cfg.Precincts-1)
		total := 500 + r.intn(4000)
		d := int64(float64(total)*lean + 0.5)
		dem[p] = d
		rep[p] = int64(total) - d
	}
	df, err := frame.New(
		frame.IntCol("precinct_id", ids),
		frame.IntCol("dem_votes", dem),
		frame.IntCol("rep_votes", rep),
	)
	if err != nil {
		// Generation always produces equal-length columns.
		panic(err)
	}
	return df
}

// GenerateEvents synthesizes a high-cardinality / skewed-keys event
// stream for exercising the out-of-core operator paths (grace-
// partitioned GROUP BY and join build, external sort): event_id is
// unique, key draws from `keys` distinct values with a power-law skew
// (skew 0 = uniform; larger values concentrate mass on hot keys —
// roughly Zipf-shaped via inverse-power sampling), val is a float
// measure and tag a low-cardinality label. Hot keys are scrambled
// across the id space so clustering does not accidentally help
// zone-map pruning or partitioning.
func GenerateEvents(rows, keys int, skew float64, seed int64) *frame.DataFrame {
	if rows < 1 {
		rows = 1
	}
	if keys < 1 {
		keys = 1
	}
	r := newRNG(seed * 41)
	ids := make([]int64, rows)
	ks := make([]int64, rows)
	vals := make([]float64, rows)
	tags := make([]string, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		u := r.float()
		rank := int(float64(keys) * math.Pow(u, 1+skew))
		if rank >= keys {
			rank = keys - 1
		}
		// Scramble rank -> key id (deterministic permutation-ish map).
		ks[i] = int64((uint64(rank)*2654435761 + uint64(seed)) % uint64(keys))
		vals[i] = float64(r.intn(1<<20)) / 16 // dyadic: exact float sums
		tags[i] = fmt.Sprintf("t%d", rank%17)
	}
	df, err := frame.New(
		frame.IntCol("event_id", ids),
		frame.IntCol("key", ks),
		frame.FloatCol("val", vals),
		frame.StrCol("tag", tags),
	)
	if err != nil {
		panic(err)
	}
	return df
}

// GenerateVoters synthesizes the voters dataset: voter_id,
// precinct_id, Features signal columns f0.. (precinct lean plus
// noise), and filler demographic columns c0.. to reach cfg.Columns
// total columns — the 96-column width whose transfer cost Figure 1
// measures.
func GenerateVoters(cfg Config, precincts *frame.DataFrame) *frame.DataFrame {
	r := newRNG(cfg.Seed * 17)
	n := cfg.Voters
	dem := precincts.Col("dem_votes").Ints
	rep := precincts.Col("rep_votes").Ints

	voterID := make([]int64, n)
	precinctID := make([]int64, n)
	features := make([][]float64, cfg.Features)
	for f := range features {
		features[f] = make([]float64, n)
	}
	nFiller := cfg.Columns - cfg.Features - 2
	filler := make([][]int64, nFiller)
	for f := range filler {
		filler[f] = make([]int64, n)
	}

	for i := 0; i < n; i++ {
		p := r.intn(cfg.Precincts)
		voterID[i] = int64(i)
		precinctID[i] = int64(p)
		lean := float64(dem[p]) / float64(dem[p]+rep[p])
		for f := range features {
			// Signal decays with feature index; noise keeps the task
			// non-trivial.
			signal := lean * (1 - 0.1*float64(f))
			features[f][i] = signal + (r.float()-0.5)*0.3
		}
		for f := range filler {
			filler[f][i] = int64(r.intn(100))
		}
	}

	cols := make([]frame.Column, 0, cfg.Columns)
	cols = append(cols, frame.IntCol("voter_id", voterID), frame.IntCol("precinct_id", precinctID))
	for f := range features {
		cols = append(cols, frame.FloatCol(fmt.Sprintf("f%d", f), features[f]))
	}
	for f := range filler {
		cols = append(cols, frame.IntCol(fmt.Sprintf("c%d", f), filler[f]))
	}
	df, err := frame.New(cols...)
	if err != nil {
		panic(err)
	}
	return df
}

// FrameToTable converts a dataframe to an engine relation.
func FrameToTable(df *frame.DataFrame) *vector.Table {
	names := make([]string, len(df.Cols))
	cols := make([]*vector.Vector, len(df.Cols))
	for i := range df.Cols {
		c := &df.Cols[i]
		names[i] = c.Name
		switch c.Kind {
		case frame.Int:
			cols[i] = vector.FromInt64s(c.Ints)
		case frame.Float:
			cols[i] = vector.FromFloat64s(c.Floats)
		default:
			cols[i] = vector.FromStrings(c.Strs)
		}
	}
	tab, err := vector.NewTable(names, cols)
	if err != nil {
		panic(err) // frames are equal-length by construction
	}
	return tab
}
