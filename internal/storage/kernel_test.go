package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"vexdb/internal/vector"
)

// hllRankLoop is the rank AddHash computed before it read the leading
// zeros in one instruction: shift the register-free bits left until the
// top one is set. Kept as the reference the kernel must match.
func hllRankLoop(x uint64) byte {
	rest := x<<hllP | 1<<(hllP-1)
	rank := byte(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	return rank
}

// TestHLLRankMatchesLoop holds AddHash's rank to the shift loop's on
// random hashes and on every edge a shift count can trip over, and the
// sketches sealed columns of each type get to the registers the loop
// gave them.
func TestHLLRankMatchesLoop(t *testing.T) {
	hashes := []uint64{0, math.MaxUint64}
	for k := range 64 {
		hashes = append(hashes, 1<<k, 1<<k-1, ^uint64(1<<k), math.MaxUint64>>k, math.MaxUint64<<k)
	}
	rng := rand.New(rand.NewSource(42))
	for range 200_000 {
		hashes = append(hashes, rng.Uint64(), rng.Uint64()>>rng.Intn(64))
	}
	var h HLL
	for _, x := range hashes {
		idx := x >> (64 - hllP)
		h.reg[idx] = 0
		h.AddHash(x)
		if got, want := h.reg[idx], hllRankLoop(x); got != want {
			t.Fatalf("hash %#016x: rank %d, the loop's %d", x, got, want)
		}
	}

	// Golden register digests, recorded with the shift loop.
	const n = 5000
	i32, i64, f64 := make([]int32, n), make([]int64, n), make([]float64, n)
	strs, blobs := make([]string, n), make([][]byte, n)
	for i := range n {
		i32[i] = int32(i*7919) - 1<<20
		i64[i] = int64(uint64(i) * 0x9e3779b97f4a7c15)
		f64[i] = float64(i)/3 - 400
		strs[i] = strings.Repeat("k", i%5) + string(rune('a'+i%26)) + string(rune('0'+i%10))
		blobs[i] = []byte(strs[i])
	}
	f64[17] = math.NaN()
	cols := map[string]*vector.Vector{
		"INTEGER": vector.FromInt32s(i32),
		"BIGINT":  vector.FromInt64s(i64),
		"DOUBLE":  vector.FromFloat64s(f64),
		"VARCHAR": vector.FromStrings(strs),
		"BLOB":    vector.FromBlobs(blobs),
	}
	golden := map[string]string{
		"INTEGER": "b3401b23693a16f6",
		"BIGINT":  "dba05b36a00dfcf3",
		"DOUBLE":  "fffcaa61217c2549",
		"VARCHAR": "dbfaa6d8d3bad2eb",
		"BLOB":    "dbfaa6d8d3bad2eb",
	}
	for typ, col := range cols {
		sum := sha256.Sum256(computeSketch(col).Registers())
		if got := hex.EncodeToString(sum[:8]); got != golden[typ] {
			t.Errorf("%s sketch registers digest %s, recorded %s", typ, got, golden[typ])
		}
	}
}

// zoneBoxed is the zone map computeZone built for VARCHAR and BOOLEAN
// before its typed loops: every row boxed into a vector.Value and
// ordered by Value.Compare. Kept as the reference the loops must match.
func zoneBoxed(v *vector.Vector) ZoneMap {
	z := ZoneMap{Rows: v.Len()}
	for i := range v.Len() {
		if v.IsNull(i) {
			z.NullCount++
			continue
		}
		val := v.Get(i)
		if z.Min.Type() == vector.Invalid {
			z.Min, z.Max = val, val
			continue
		}
		if c, err := val.Compare(z.Min); err == nil && c < 0 {
			z.Min = val
		}
		if c, err := val.Compare(z.Max); err == nil && c > 0 {
			z.Max = val
		}
	}
	if v.Type() == vector.String && z.HasMinMax() &&
		(len(z.Min.Str()) > zoneMaxString || len(z.Max.Str()) > zoneMaxString) {
		z.Min, z.Max = vector.Null(), vector.Null()
	}
	return z
}

// TestZoneMatchesBoxedCompare holds the typed VARCHAR and BOOLEAN zone
// loops to the boxed Value.Compare loop over random columns with NULLs,
// empty, non-ASCII and over-long strings, and all-NULL columns.
func TestZoneMatchesBoxedCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"", "a", "b", "ab", "Z", "é", "\x00", "zz", strings.Repeat("q", zoneMaxString), strings.Repeat("q", zoneMaxString+1)}
	for round := range 500 {
		n := 1 + rng.Intn(40)
		nullFrac := []float64{0, 0.3, 1}[round%3]
		s, b := vector.New(vector.String, n), vector.New(vector.Bool, n)
		for range n {
			if rng.Float64() < nullFrac {
				s.AppendValue(vector.Null())
				b.AppendValue(vector.Null())
				continue
			}
			s.AppendValue(vector.NewString(alphabet[rng.Intn(len(alphabet))]))
			b.AppendValue(vector.NewBool(rng.Intn(2) == 0))
		}
		for _, v := range []*vector.Vector{s, b} {
			got, want := computeZone(v), zoneBoxed(v)
			if got.Rows != want.Rows || got.NullCount != want.NullCount || got.HasMinMax() != want.HasMinMax() ||
				got.HasMinMax() && (!got.Min.Equal(want.Min) || !got.Max.Equal(want.Max)) {
				t.Fatalf("round %d %s: zone %+v, boxed %+v", round, v.Type(), got, want)
			}
		}
	}
}

// BenchmarkSeal is one bulk append of 64 segments of INTEGER (FOR),
// DOUBLE (raw) and VARCHAR (dict) rows into an empty store, sealed at
// width 1 and at NumCPU (clamped to GOMAXPROCS), in ns per sealed value.
func BenchmarkSeal(b *testing.B) {
	const rows = 64 * SegmentRows
	rng := rand.New(rand.NewSource(1))
	ints, doubles, strs := make([]int32, rows), make([]float64, rows), make([]string, rows)
	for i := range rows {
		ints[i] = int32(rng.Intn(5000))
		doubles[i] = rng.NormFloat64()
		strs[i] = fmt.Sprintf("precinct-%03d", rng.Intn(300))
	}
	ch := vector.NewChunk(vector.FromInt32s(ints), vector.FromFloat64s(doubles), vector.FromStrings(strs))
	types := []vector.Type{vector.Int32, vector.Float64, vector.String}
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := NewColumnStore(types).AppendChunkWidth(ch, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*len(types)), "ns/value")
		})
	}
}
