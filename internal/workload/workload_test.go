package workload

import (
	"testing"
)

func TestGenerators(t *testing.T) {
	cfg := TestConfig()
	precincts := GeneratePrecincts(cfg)
	if precincts.NumRows() != cfg.Precincts {
		t.Fatalf("precincts = %d", precincts.NumRows())
	}
	for i, d := range precincts.Col("dem_votes").Ints {
		r := precincts.Col("rep_votes").Ints[i]
		if d <= 0 || r <= 0 {
			t.Fatalf("precinct %d has non-positive votes %d/%d", i, d, r)
		}
	}
	voters := GenerateVoters(cfg, precincts)
	if voters.NumRows() != cfg.Voters {
		t.Fatalf("voters = %d", voters.NumRows())
	}
	if len(voters.Cols) != cfg.Columns {
		t.Fatalf("columns = %d, want %d", len(voters.Cols), cfg.Columns)
	}
	// Deterministic regeneration.
	again := GenerateVoters(cfg, precincts)
	if again.Col("f0").Floats[100] != voters.Col("f0").Floats[100] {
		t.Fatal("generation not deterministic")
	}
	// Precinct ids in range.
	for _, p := range voters.Col("precinct_id").Ints[:100] {
		if p < 0 || p >= int64(cfg.Precincts) {
			t.Fatalf("precinct id %d out of range", p)
		}
	}
}
