package exec

import (
	"fmt"
	"sync/atomic"
	"testing"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// hybridAggNode builds the adversarial aggregation the differential
// matrix runs: NaN/NULL float group key alongside a high-cardinality
// int key, with every aggregate kind including DISTINCT ones. Float
// values in buildSpillTable are dyadic so SUM is exact and results
// compare byte-for-byte across any consumption order.
func hybridAggNode(tab plan.Node) plan.Node {
	return &plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(1, vector.Int64), colRef(3, vector.Float64)},
		GroupNames: []string{"hk", "v"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(3, vector.Float64), Name: "sv", Typ: vector.Float64},
			{Kind: plan.AggMin, Arg: colRef(3, vector.Float64), Name: "mn", Typ: vector.Float64},
			{Kind: plan.AggMax, Arg: colRef(4, vector.String), Name: "mx", Typ: vector.String},
			{Kind: plan.AggCount, Arg: colRef(4, vector.String), Distinct: true, Name: "cd", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Distinct: true, Name: "sd", Typ: vector.Int64},
		},
		Child: tab,
	}
}

// TestHybridAggDifferentialMatrix proves byte-identity of hybrid
// spill-mode aggregation against the unlimited serial answer across
// workers 1/2/3/8 × budgets unlimited/4MB/256KB/64KB/16KB (no spill,
// most partitions resident, few resident, every partition evicted and
// re-partitioned), with NaN/NULL group keys and DISTINCT aggregates,
// materialized and streamed.
func TestHybridAggDifferentialMatrix(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	node := hybridAggNode(&plan.Scan{Table: tab})
	want := runPlan(t, node, &Context{Parallelism: 1})

	for _, workers := range []int{1, 2, 3, 8} {
		for _, budget := range []int64{0, 4 << 20, 256 << 10, 64 << 10, 16 << 10} {
			label := fmt.Sprintf("workers=%d budget=%d", workers, budget)
			ctx, dir := spillCtx(t, workers, budget)
			got := runPlan(t, node, ctx)
			assertTablesEqual(t, got, want, label)
			if budget > 0 && budget <= 64<<10 && !ctx.prof.Spilled() {
				t.Fatalf("%s: expected spilling", label)
			}
			assertTempDirEmpty(t, dir)

			// Streamed consumption must agree chunk by chunk too.
			ctx2, dir2 := spillCtx(t, workers, budget)
			s, err := Stream(node, ctx2)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := s.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			assertTablesEqual(t, streamed, want, label+" streamed")
			assertTempDirEmpty(t, dir2)
		}
	}
}

// TestHybridAggKeepsPartitionsResident: at a budget that fits most but
// not all of the aggregation state, some partitions must stay in
// memory (resident counter) and what is written must be a fraction of
// what a budget too small to keep anything resident writes, with
// identical bytes. The grouping is low-cardinality (sk × v), the case
// hybrid is built for: resident partitions merge repeated groups
// instead of re-writing their rows, while the DISTINCT-over-id
// aggregate keeps the state large enough to overflow the budget.
func TestHybridAggKeepsPartitionsResident(t *testing.T) {
	tab := buildSpillTable(t, 8*vector.DefaultChunkSize)
	node := &plan.Aggregate{
		GroupBy:    []plan.Expr{colRef(2, vector.Int32), colRef(3, vector.Float64)},
		GroupNames: []string{"sk", "v"},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCount, Name: "n", Typ: vector.Int64},
			{Kind: plan.AggSum, Arg: colRef(3, vector.Float64), Name: "sv", Typ: vector.Float64},
			{Kind: plan.AggSum, Arg: colRef(0, vector.Int64), Distinct: true, Name: "sd", Typ: vector.Int64},
		},
		Child: &plan.Scan{Table: tab},
	}
	want := runPlan(t, node, &Context{Parallelism: 1})

	// The aggregation state (dominated by the DISTINCT id sets) is a
	// small multiple of the larger budget: enough to force overflow
	// while leaving room for most partitions to stay resident.
	ctxTiny, dirTiny := spillCtx(t, 1, 32<<10)
	assertTablesEqual(t, runPlan(t, node, ctxTiny), want, "tiny budget")
	assertTempDirEmpty(t, dirTiny)

	ctxHyb, dirHyb := spillCtx(t, 1, 512<<10)
	assertTablesEqual(t, runPlan(t, node, ctxHyb), want, "hybrid")
	assertTempDirEmpty(t, dirHyb)

	if !ctxHyb.prof.Spilled() || ctxHyb.prof.ResidentPartitions() == 0 {
		t.Fatalf("512KB budget: spilled=%d resident=%d partitions, want some of each",
			ctxHyb.prof.Partitions(), ctxHyb.prof.ResidentPartitions())
	}
	if hw, tw := ctxHyb.prof.BytesWritten(), ctxTiny.prof.BytesWritten(); hw*2 > tw {
		t.Fatalf("512KB budget wrote %d bytes, 32KB budget wrote %d — expected at least a 2x reduction", hw, tw)
	}
	t.Logf("spill bytes: 512KB=%d 32KB=%d resident=%d spilled=%d",
		ctxHyb.prof.BytesWritten(), ctxTiny.prof.BytesWritten(),
		ctxHyb.prof.ResidentPartitions(), ctxHyb.prof.Partitions())
}

// TestHybridAggGrowBudgetAvoidsSpill: when GrowBudget can extend the
// budget (simulating an idle governor pool), an aggregation that would
// otherwise overflow must stay fully in memory and write nothing.
func TestHybridAggGrowBudgetAvoidsSpill(t *testing.T) {
	tab := buildSpillTable(t, 4*vector.DefaultChunkSize)
	node := hybridAggNode(&plan.Scan{Table: tab})
	want := runPlan(t, node, &Context{Parallelism: 1})

	var lease atomic.Int64 // both workers read and grow it
	lease.Store(64 << 10)  // would certainly spill on its own
	ctx, dir := spillCtx(t, 2, lease.Load())
	ctx.LiveBudget = lease.Load
	ctx.GrowBudget = lease.Add
	got := runPlan(t, node, ctx)
	assertTablesEqual(t, got, want, "grown budget")
	if ctx.prof.Spilled() {
		t.Fatalf("spilled despite growable budget: partitions=%d written=%d",
			ctx.prof.Partitions(), ctx.prof.BytesWritten())
	}
	assertTempDirEmpty(t, dir)
}
