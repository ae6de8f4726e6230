// The per-query execution profile. Every plan node a query builds gets
// one counter record, written by the operator that did the work — each
// event at one site — and the query keeps its spill bytes beside them.
// Everything the engine reports about a query is read off the profile:
// the totals ResultSet and vexdb.Rows return and the EXPLAIN ANALYZE
// spill header are sums over its records, the per-operator annotations
// are the records themselves, and each scan's segment counts reach its
// table's cumulative counters when the query's stream closes.
package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"vexdb/internal/plan"
	"vexdb/internal/spill"
)

// nodeStats is what one plan node did in one query.
type nodeStats struct {
	rows atomic.Int64 // rows the node emitted

	// Scan: segments decoded, and segments zone-map pruning skipped;
	// values decoded from compressed columns, and rows a fused filter's
	// kernels evaluated on codes instead (Where.ScanSegment).
	scanned, skipped atomic.Int64
	decoded, coded   atomic.Int64

	// Hash partitions a blocking operator wrote to disk vs kept resident
	// in memory, over the partitioning passes that overflowed the budget;
	// both zero when the operator never overflowed.
	spilled, resident atomic.Int64

	// Sorted runs written to disk.
	runs atomic.Int64

	// Hash aggregation (Aggregate, Distinct): groups created over all of
	// the node's tables — thread-local, partition, reloaded — against the
	// groups those tables emitted; the nearer the two, the less was
	// pre-aggregated only to be merged again. partitionedAt is how many
	// input rows the first consumer to stop pre-aggregating had consumed
	// when it did, zero when none did. A dense table (dense.go) inserts
	// a group where one consumer's rows first touch its slot, so its
	// groups inserted are at most the consumers × its groups emitted;
	// dense is the slots of the node's dense tables, zero when none is.
	groupsInserted, groupsEmitted, partitionedAt, dense atomic.Int64
}

// Profile is one query's execution counters: a record per built plan
// node, and the bytes its spill files took. Stream creates it; nested
// table-UDF streams add their nodes to their query's profile. Its
// methods are safe for concurrent use and, for the totals, for a nil
// receiver (a statement without result rows). Totals are live until the
// stream is drained or closed.
type Profile struct {
	mu    sync.Mutex
	nodes map[plan.Node]*nodeStats

	bytesWritten, bytesRead atomic.Int64
}

// node returns n's record, creating it on first use.
func (p *Profile) node(n plan.Node) *nodeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nodes == nil {
		p.nodes = map[plan.Node]*nodeStats{}
	}
	st := p.nodes[n]
	if st == nil {
		st = &nodeStats{}
		p.nodes[n] = st
	}
	return st
}

// sum adds one counter up over every node.
func (p *Profile) sum(counter func(*nodeStats) *atomic.Int64) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, st := range p.nodes {
		n += counter(st).Load()
	}
	return n
}

// Scanned returns the number of segments decoded and scanned.
func (p *Profile) Scanned() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.scanned })
}

// Skipped returns the number of segments skipped by zone-map pruning.
func (p *Profile) Skipped() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.skipped })
}

// Decoded returns the number of values decoded from compressed
// columns.
func (p *Profile) Decoded() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.decoded })
}

// Coded returns the number of rows WHERE kernels evaluated on a
// compressed column's codes, summed over kernels.
func (p *Profile) Coded() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.coded })
}

// Partitions returns the number of hash partitions (aggregation
// groups, join build/probe sides) spilled to disk.
func (p *Profile) Partitions() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.spilled })
}

// ResidentPartitions returns the number of hash partitions a hybrid
// blocking operator kept in memory after overflowing: the partitions
// spill-mode execution did NOT have to write. Zero for queries that
// never overflowed (nothing was partitioned) or that evicted every
// partition.
func (p *Profile) ResidentPartitions() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.resident })
}

// Runs returns the number of sorted runs written to disk.
func (p *Profile) Runs() int64 {
	return p.sum(func(st *nodeStats) *atomic.Int64 { return &st.runs })
}

// BytesWritten returns the total bytes written to spill files.
func (p *Profile) BytesWritten() int64 {
	if p == nil {
		return 0
	}
	return p.bytesWritten.Load()
}

// BytesRead returns the total bytes read back from spill files.
func (p *Profile) BytesRead() int64 {
	if p == nil {
		return 0
	}
	return p.bytesRead.Load()
}

// Spilled reports whether anything went to disk.
func (p *Profile) Spilled() bool {
	return p.Partitions() > 0 || p.Runs() > 0 || p.BytesWritten() > 0
}

// SpillWrote implements spill.Recorder.
func (p *Profile) SpillWrote(n int64) { p.bytesWritten.Add(n) }

// SpillRead implements spill.Recorder.
func (p *Profile) SpillRead(n int64) { p.bytesRead.Add(n) }

var _ spill.Recorder = (*Profile)(nil)

// Actuals renders what n did for EXPLAIN ANALYZE: the rows it emitted;
// for a scan, the values it decoded and the rows its fused filter
// evaluated on codes; for a blocking operator, partitions spilled vs
// kept resident once it overflowed, groups inserted over groups
// emitted, the slots of its dense tables, and the input row at which
// it stopped pre-aggregating, if it did. A node the query never built
// did nothing.
func (p *Profile) Actuals(n plan.Node) string {
	p.mu.Lock()
	st := p.nodes[n]
	p.mu.Unlock()
	if st == nil {
		st = &nodeStats{}
	}
	parts := []string{fmt.Sprintf("act=%d", st.rows.Load())}
	if dec, cod := st.decoded.Load(), st.coded.Load(); dec > 0 || cod > 0 {
		parts = append(parts, fmt.Sprintf("decoded=%d coded=%d", dec, cod))
	}
	if sk := st.skipped.Load(); sk > 0 {
		parts = append(parts, fmt.Sprintf("skipped=%d", sk))
	}
	if sp, res := st.spilled.Load(), st.resident.Load(); sp > 0 || res > 0 {
		parts = append(parts, fmt.Sprintf("spilled=%d resident=%d", sp, res))
	}
	if ins := st.groupsInserted.Load(); ins > 0 {
		parts = append(parts, fmt.Sprintf("groups=%d/%d", ins, st.groupsEmitted.Load()))
	}
	if d := st.dense.Load(); d > 0 {
		parts = append(parts, fmt.Sprintf("dense=%d", d))
	}
	if at := st.partitionedAt.Load(); at > 0 {
		parts = append(parts, fmt.Sprintf("partitioned@%d", at))
	}
	return strings.Join(parts, " ")
}

// noteScans adds each scan's segment counts to its table's cumulative
// counters (storage.TableStats).
func (p *Profile) noteScans() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n, st := range p.nodes {
		if s, ok := n.(*plan.Scan); ok {
			s.Table.Data.NoteScan(st.scanned.Load(), st.skipped.Load())
		}
	}
}
