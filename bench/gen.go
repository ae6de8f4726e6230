package main

import (
	"fmt"
	"math"

	"vexdb"
	"vexdb/internal/frame"
)

// rng is the xorshift* generator every input is drawn from. The
// engine never sees it: workloads hand the engine generated tables and
// SQL text only.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	v := uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03
	if v == 0 {
		v = 0x853C49E6748FEA9B
	}
	r := &rng{s: v}
	r.next()
	return r
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

// hashUnit is splitmix64 mapped to [0,1): the draw the engine's
// weighted_label UDF makes, reproduced here so the client-side
// wrangle and the label oracle need nothing from the engine.
func hashUnit(id, seed uint64) float64 {
	x := id*0x9E3779B97F4A7C15 + seed + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// voterData is the paper's two datasets in the synthetic shape
// internal/workload gives them: per-precinct partisan lean in
// [0.15, 0.85] drives the signal features and the weighted-random
// labels; filler columns bring voters to the 96-column width whose
// transfer the external placements pay for.
type voterData struct {
	seed      int64
	features  int
	precincts *frame.DataFrame // precinct_id, dem_votes, rep_votes
	voters    *frame.DataFrame // voter_id, precinct_id, f0.., c0..
}

func genVoters(sc scale, seed int64) *voterData {
	r := newRNG(seed, 1)
	np := sc.Precincts
	pid := make([]int64, np)
	dem := make([]int64, np)
	rep := make([]int64, np)
	for p := 0; p < np; p++ {
		pid[p] = int64(p)
		lean := 0.15 + 0.7*float64(p)/float64(np-1)
		total := 500 + r.intn(4000)
		dem[p] = int64(float64(total)*lean + 0.5)
		rep[p] = int64(total) - dem[p]
	}
	n := sc.Voters
	voterID := make([]int64, n)
	precinctID := make([]int64, n)
	feats := make([][]float64, sc.Features)
	for f := range feats {
		feats[f] = make([]float64, n)
	}
	filler := make([][]int64, sc.Columns-sc.Features-2)
	for f := range filler {
		filler[f] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		p := r.intn(np)
		voterID[i] = int64(i)
		precinctID[i] = int64(p)
		lean := float64(dem[p]) / float64(dem[p]+rep[p])
		for f := range feats {
			feats[f][i] = lean*(1-0.1*float64(f)) + (r.float()-0.5)*0.3
		}
		for f := range filler {
			filler[f][i] = int64(r.intn(100))
		}
	}
	cols := []frame.Column{frame.IntCol("voter_id", voterID), frame.IntCol("precinct_id", precinctID)}
	for f := range feats {
		cols = append(cols, frame.FloatCol(fmt.Sprintf("f%d", f), feats[f]))
	}
	for f := range filler {
		cols = append(cols, frame.IntCol(fmt.Sprintf("c%d", f), filler[f]))
	}
	return &voterData{
		seed:      seed,
		features:  sc.Features,
		precincts: mustFrame(frame.IntCol("precinct_id", pid), frame.IntCol("dem_votes", dem), frame.IntCol("rep_votes", rep)),
		voters:    mustFrame(cols...),
	}
}

func (v *voterData) featureNames() []string {
	out := make([]string, v.features)
	for i := range out {
		out[i] = fmt.Sprintf("f%d", i)
	}
	return out
}

// labels draws every voter's label straight from the generator's
// arrays, without a join: the oracle the in-database and the
// client-side wrangles are both checked against.
func (v *voterData) labels() []int64 {
	ids := v.voters.Col("voter_id").Ints
	prec := v.voters.Col("precinct_id").Ints
	dem := v.precincts.Col("dem_votes").Ints
	rep := v.precincts.Col("rep_votes").Ints
	out := make([]int64, len(ids))
	for i, id := range ids {
		p := prec[i]
		if hashUnit(uint64(id), uint64(v.seed)) >= float64(dem[p])/float64(dem[p]+rep[p]) {
			out[i] = 1
		}
	}
	return out
}

func mustFrame(cols ...frame.Column) *frame.DataFrame {
	df, err := frame.New(cols...)
	if err != nil {
		panic(err) // generators build equal-length columns
	}
	return df
}

func frameToTable(df *frame.DataFrame) *vexdb.Table {
	names := make([]string, len(df.Cols))
	cols := make([]*vexdb.Vector, len(df.Cols))
	for i := range df.Cols {
		c := &df.Cols[i]
		names[i] = c.Name
		switch c.Kind {
		case frame.Int:
			cols[i] = vexdb.NewVectorInt64(c.Ints)
		case frame.Float:
			cols[i] = vexdb.NewVectorFloat64(c.Floats)
		default:
			cols[i] = vexdb.NewVectorString(c.Strs)
		}
	}
	return mustTable(names, cols)
}

func mustTable(names []string, cols []*vexdb.Vector) *vexdb.Table {
	t, err := vexdb.NewTable(names, cols)
	if err != nil {
		panic(err)
	}
	return t
}

func tableToFrame(tab *vexdb.Table) (*frame.DataFrame, error) {
	cols := make([]frame.Column, tab.NumCols())
	for i, c := range tab.Cols {
		switch c.Type() {
		case vexdb.Int64:
			cols[i] = frame.IntCol(tab.Names[i], c.Int64s())
		case vexdb.Float64:
			cols[i] = frame.FloatCol(tab.Names[i], c.Float64s())
		case vexdb.String:
			cols[i] = frame.StrCol(tab.Names[i], c.Strings())
		default:
			return nil, fmt.Errorf("column %s: type %s has no frame kind", tab.Names[i], c.Type())
		}
	}
	return frame.New(cols...)
}

// genEvents builds the analyst's fact table: id is sorted (so a range
// on it prunes segments), lo has ~1k distinct values and hi ~rows/4
// (a group-by that fits memory and one that does not), dk joins to
// dim, v carries NaN and NULL, w is dyadic so float sums are exact at
// any worker count, cat cycles through 64 strings.
func genEvents(rows, dimRows int, seed int64) *vexdb.Table {
	r := newRNG(seed, 2)
	id := make([]int64, rows)
	lo := make([]int64, rows)
	hi := make([]int64, rows)
	dk := make([]int64, rows)
	v := make([]float64, rows)
	w := make([]float64, rows)
	cat := make([]string, rows)
	cats := make([]string, 64)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%02d", i)
	}
	hiCard := rows/4 + 1
	var nulls []int
	for i := 0; i < rows; i++ {
		id[i] = int64(i)
		lo[i] = int64(r.intn(1000))
		hi[i] = int64(r.intn(hiCard))
		dk[i] = int64(r.intn(dimRows))
		w[i] = float64(r.intn(1<<16)) / 16
		cat[i] = cats[r.intn(64)]
		switch x := r.intn(1000); {
		case x == 0:
			v[i] = math.NaN()
		case x < 3:
			nulls = append(nulls, i)
		default:
			v[i] = (r.float() - 0.5) * 2000
		}
	}
	vv := vexdb.NewVectorFloat64(v)
	for _, i := range nulls {
		vv.SetNull(i)
	}
	return mustTable(
		[]string{"id", "lo", "hi", "dk", "v", "w", "cat"},
		[]*vexdb.Vector{
			vexdb.NewVectorInt64(id), vexdb.NewVectorInt64(lo), vexdb.NewVectorInt64(hi),
			vexdb.NewVectorInt64(dk), vv, vexdb.NewVectorFloat64(w), vexdb.NewVectorString(cat),
		})
}

// genDim is the join's build side: one row per dk.
func genDim(rows int, seed int64) *vexdb.Table {
	r := newRNG(seed, 3)
	dk := make([]int64, rows)
	grp := make([]int64, rows)
	name := make([]string, rows)
	weight := make([]float64, rows)
	for i := 0; i < rows; i++ {
		dk[i] = int64(i)
		grp[i] = int64(r.intn(100))
		name[i] = fmt.Sprintf("dim-%06d-%04x", i, r.intn(1<<16))
		weight[i] = float64(r.intn(1<<10)) / 8
	}
	return mustTable(
		[]string{"dk", "grp", "name", "weight"},
		[]*vexdb.Vector{vexdb.NewVectorInt64(dk), vexdb.NewVectorInt64(grp), vexdb.NewVectorString(name), vexdb.NewVectorFloat64(weight)})
}
