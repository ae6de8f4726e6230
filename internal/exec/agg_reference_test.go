package exec

// The row-at-a-time aggregation table the columnar one (agg.go)
// replaced, kept as the oracle agg_exact_test.go checks the
// new table against: one heap refAggGroup per group holding boxed key
// Values and a refAggState per aggregate, a map-backed refGroupIndex
// resolving one row per call, merge by re-encoded key strings, emit by
// sorting groups on firstSeen. Only names changed (the ref prefix);
// the selection variant of consume, which only the spiller used, is
// left out.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"vexdb/internal/catalog"
	"vexdb/internal/core"
	"vexdb/internal/plan"
	"vexdb/internal/spill"
	"vexdb/internal/vector"
)

// refValueBytes estimates the retained size of one boxed value.
func refValueBytes(v vector.Value) int64 {
	switch v.Type() {
	case vector.String:
		return 16 + int64(len(v.Str()))
	case vector.Blob:
		return 24 + int64(len(v.Bytes()))
	}
	return 16
}

// refAggState is one aggregate's partial state. For DISTINCT aggregates
// the accumulators stay zero during consumption: distinct holds the
// encoded argument values (appendRowKey form), per-worker sets union
// losslessly at the merge, and refFinalizeAgg folds the merged set into
// the accumulators in sorted key order — deterministic regardless of
// worker count or morsel claim order.
type refAggState struct {
	count    int64
	sumF     float64
	sumI     int64
	min      vector.Value
	max      vector.Value
	distinct map[string]struct{}
}

// refAggGroup is the accumulated state of one group. firstSeen orders the
// output: it is the global position (morsel, row) of the group's first
// input row, so parallel partitions merge back into the exact order
// serial execution would produce.
type refAggGroup struct {
	keyVals   []vector.Value
	aggs      []refAggState
	firstSeen int64
}

// refAggTable accumulates hash-aggregation state. Groups are stored
// densely in first-appearance order; the refGroupIndex maps key rows to
// slots without per-row key allocation. bytes estimates the table's
// retained footprint for the query's memory budget.
type refAggTable struct {
	spec   *plan.Aggregate
	gi     *refGroupIndex
	groups []refAggGroup
	bytes  int64

	groupVecs []*vector.Vector // reused across chunks
	argVecs   []*vector.Vector
	scratch   []byte // distinct-value key buffer
}

// refAggGroupOverhead estimates the fixed per-group bookkeeping cost
// (slice headers, map slots, firstSeen) on top of key and state sizes.
const refAggGroupOverhead = 96

func refNewAggTable(spec *plan.Aggregate) *refAggTable {
	types := make([]vector.Type, len(spec.GroupBy))
	for i, g := range spec.GroupBy {
		types[i] = g.Type()
	}
	return &refAggTable{
		spec:      spec,
		gi:        refNewGroupIndex(types),
		groupVecs: make([]*vector.Vector, len(spec.GroupBy)),
		argVecs:   make([]*vector.Vector, len(spec.Aggs)),
	}
}

// evalInputs evaluates the group and argument expressions over one
// chunk into the table's reusable vector slots.
func (t *refAggTable) evalInputs(ch *vector.Chunk) error {
	for i, g := range t.spec.GroupBy {
		v, err := plan.Evaluate(g, ch)
		if err != nil {
			return err
		}
		t.groupVecs[i] = v
	}
	for i, s := range t.spec.Aggs {
		if s.Arg == nil {
			t.argVecs[i] = nil
			continue
		}
		v, err := plan.Evaluate(s.Arg, ch)
		if err != nil {
			return err
		}
		t.argVecs[i] = v
	}
	return nil
}

// consume folds one chunk into the table. morsel is the chunk's global
// position in the input stream; it seeds firstSeen so output order is
// deterministic regardless of which worker consumed the chunk.
func (t *refAggTable) consume(ch *vector.Chunk, morsel int) error {
	if err := t.evalInputs(ch); err != nil {
		return err
	}
	return t.consumeVecs(t.groupVecs, t.argVecs, ch.NumRows(), func(r int) int64 {
		return int64(morsel)<<32 | int64(r)
	})
}

// getOrCreate returns the group of row r of the key vectors, creating
// it (with firstSeen = pos, per-group byte accounting, DISTINCT set
// init) on first appearance and folding pos into firstSeen otherwise.
// Shared by fresh consumption and spilled partial replay so group
// initialization and budget accounting cannot diverge between paths.
func (t *refAggTable) getOrCreate(groupVecs []*vector.Vector, r int, pos int64) *refAggGroup {
	id, created := t.gi.groupID(groupVecs, r)
	if created {
		g := refAggGroup{
			aggs:      make([]refAggState, len(t.spec.Aggs)),
			firstSeen: pos,
		}
		t.bytes += refAggGroupOverhead + 56*int64(len(t.spec.Aggs))
		if len(groupVecs) > 0 {
			g.keyVals = make([]vector.Value, len(groupVecs))
			for i, gv := range groupVecs {
				g.keyVals[i] = gv.Get(r)
				t.bytes += refValueBytes(g.keyVals[i])
			}
		}
		for i, s := range t.spec.Aggs {
			if s.Distinct {
				g.aggs[i].distinct = make(map[string]struct{})
			}
		}
		t.groups = append(t.groups, g)
	}
	g := &t.groups[id]
	if pos < g.firstSeen {
		g.firstSeen = pos
	}
	return g
}

// consumeVecs folds n rows of evaluated group/argument vectors into
// the table. posOf returns each row's unique global input position;
// a group's firstSeen is the minimum over its rows, so the result is
// independent of consumption order (spilled partitions replay rows in
// file order, which under parallel spillers is not position order).
func (t *refAggTable) consumeVecs(groupVecs, argVecs []*vector.Vector, n int, posOf func(r int) int64) error {
	for r := 0; r < n; r++ {
		g := t.getOrCreate(groupVecs, r, posOf(r))
		for i, s := range t.spec.Aggs {
			if err := refUpdateAgg(&g.aggs[i], s, argVecs[i], r, &t.scratch, &t.bytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensureGlobalGroup materializes the single output row a global
// aggregation owes even for empty input.
func (t *refAggTable) ensureGlobalGroup() {
	if len(t.spec.GroupBy) > 0 || len(t.groups) > 0 {
		return
	}
	g := refAggGroup{aggs: make([]refAggState, len(t.spec.Aggs))}
	for i, s := range t.spec.Aggs {
		if s.Distinct {
			g.aggs[i].distinct = make(map[string]struct{})
		}
	}
	t.groups = append(t.groups, g)
}

// mergeKeyMap builds the encoded-key → group-slot map merge uses;
// build it once and reuse it across successive merge calls (merge
// keeps it updated for appended groups).
func (t *refAggTable) mergeKeyMap() map[string]int32 {
	byKey := make(map[string]int32, len(t.groups))
	var buf []byte
	for i := range t.groups {
		buf = buf[:0]
		for _, kv := range t.groups[i].keyVals {
			buf = refAppendValueKey(buf, kv)
		}
		byKey[string(buf)] = int32(i)
	}
	return byKey
}

// merge folds o's groups into t, matching groups by their encoded key
// values. Every aggregate kind composes: counts and sums add, min/max
// compare, and DISTINCT states union their per-worker key sets (the
// accumulators stay untouched until refFinalizeAgg folds the merged set).
// o's tracked bytes transfer to t (the groups move or union into it),
// so whoever releases t releases everything merged into it.
func (t *refAggTable) merge(o *refAggTable, byKey map[string]int32) error {
	t.bytes += o.bytes
	o.bytes = 0
	if len(o.groups) == 0 {
		return nil
	}
	var buf []byte
	for i := range o.groups {
		og := &o.groups[i]
		buf = buf[:0]
		for _, kv := range og.keyVals {
			buf = refAppendValueKey(buf, kv)
		}
		id, ok := byKey[string(buf)]
		if !ok {
			byKey[string(buf)] = int32(len(t.groups))
			t.groups = append(t.groups, *og)
			continue
		}
		g := &t.groups[id]
		if og.firstSeen < g.firstSeen {
			g.firstSeen = og.firstSeen
		}
		for a := range g.aggs {
			if err := refMergeAggState(&g.aggs[a], &og.aggs[a]); err != nil {
				return err
			}
		}
	}
	return nil
}

// refMergeAggState combines two partial states of the same aggregate.
func refMergeAggState(dst, src *refAggState) error {
	dst.count += src.count
	dst.sumF += src.sumF
	dst.sumI += src.sumI
	if src.distinct != nil {
		if dst.distinct == nil {
			dst.distinct = make(map[string]struct{}, len(src.distinct))
		}
		for k := range src.distinct {
			dst.distinct[k] = struct{}{}
		}
	}
	if src.min.Type() != vector.Invalid {
		if dst.min.Type() == vector.Invalid {
			dst.min = src.min
		} else if c, err := src.min.Compare(dst.min); err != nil {
			return err
		} else if c < 0 {
			dst.min = src.min
		}
	}
	if src.max.Type() != vector.Invalid {
		if dst.max.Type() == vector.Invalid {
			dst.max = src.max
		} else if c, err := src.max.Compare(dst.max); err != nil {
			return err
		} else if c > 0 {
			dst.max = src.max
		}
	}
	return nil
}

// emit materializes the groups, ordered by first appearance, as one
// result chunk.
func (t *refAggTable) emit() (*vector.Chunk, error) {
	run, err := t.emitRun()
	if err != nil {
		return nil, err
	}
	return run.data, nil
}

// emitRun materializes the groups as a run sorted by first appearance:
// the finalized output chunk plus each group's firstSeen position, so
// spilled partitions merge back into exact serial first-appearance
// order via the shared run merger (zero sort keys: the merge orders
// purely by position, and firstSeen values are unique — no two groups
// share a first row).
func (t *refAggTable) emitRun() (*sortedRun, error) {
	order := make([]int, len(t.groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return t.groups[order[a]].firstSeen < t.groups[order[b]].firstSeen
	})
	schema := t.spec.Schema()
	cols := make([]*vector.Vector, len(schema))
	for i, c := range schema {
		cols[i] = vector.New(c.Type, len(t.groups))
	}
	pos := make([]int64, 0, len(t.groups))
	ng := len(t.spec.GroupBy)
	for _, gi := range order {
		g := &t.groups[gi]
		for i, kv := range g.keyVals {
			refAppendCast(cols[i], kv, schema[i].Type)
		}
		for i, s := range t.spec.Aggs {
			v, err := refFinalizeAgg(&g.aggs[i], s)
			if err != nil {
				return nil, err
			}
			refAppendCast(cols[ng+i], v, schema[ng+i].Type)
		}
		pos = append(pos, g.firstSeen)
	}
	return &sortedRun{data: vector.NewChunk(cols...), pos: pos}, nil
}

func refAppendCast(col *vector.Vector, v vector.Value, t vector.Type) {
	if !v.IsNull() && v.Type() != t {
		if cv, err := v.Cast(t); err == nil {
			v = cv
		}
	}
	col.AppendValue(v)
}

func refUpdateAgg(st *refAggState, spec plan.AggSpec, arg *vector.Vector, r int, scratch *[]byte, bytes *int64) error {
	if spec.Arg == nil { // count(*)
		st.count++
		return nil
	}
	if arg.IsNull(r) {
		return nil // aggregates skip NULLs
	}
	if spec.Distinct {
		// Record the encoded value only; accumulation happens in
		// refFinalizeAgg over the merged set. Type errors still surface
		// here, where the argument vector is at hand.
		if spec.Kind == plan.AggSum || spec.Kind == plan.AggAvg {
			switch arg.Type() {
			case vector.Float64, vector.Int32, vector.Int64:
			default:
				return fmt.Errorf("exec: cannot sum %s", arg.Type())
			}
		}
		buf := appendRowKey((*scratch)[:0], arg, r)
		*scratch = buf
		if _, seen := st.distinct[string(buf)]; !seen {
			st.distinct[string(buf)] = struct{}{}
			*bytes += int64(len(buf)) + 48
		}
		return nil
	}
	return refAccumulateAgg(st, spec, arg.Get(r), bytes)
}

// refAccumulateAgg folds one non-NULL value into an aggregate state. It
// is shared by the per-row update path and the distinct-set fold in
// refFinalizeAgg. bytes tracks the retained-value footprint of MIN/MAX
// — over string/blob columns the kept value can dominate the group's
// size, so the memory budget must see it.
func refAccumulateAgg(st *refAggState, spec plan.AggSpec, v vector.Value, bytes *int64) error {
	switch spec.Kind {
	case plan.AggCount:
		st.count++
	case plan.AggSum, plan.AggAvg:
		st.count++
		switch v.Type() {
		case vector.Float64:
			st.sumF += v.Float64()
		case vector.Int32, vector.Int64:
			st.sumI += v.Int64()
			st.sumF += v.Float64()
		default:
			return fmt.Errorf("exec: cannot sum %s", v.Type())
		}
	case plan.AggMin:
		if st.min.Type() == vector.Invalid { // unset or NULL: first value wins
			st.min = v
			*bytes += refValueBytes(v)
			return nil
		}
		c, err := v.Compare(st.min)
		if err != nil {
			return err
		}
		if c < 0 {
			*bytes += refValueBytes(v) - refValueBytes(st.min)
			st.min = v
		}
	case plan.AggMax:
		if st.max.Type() == vector.Invalid {
			st.max = v
			*bytes += refValueBytes(v)
			return nil
		}
		c, err := v.Compare(st.max)
		if err != nil {
			return err
		}
		if c > 0 {
			*bytes += refValueBytes(v) - refValueBytes(st.max)
			st.max = v
		}
	}
	return nil
}

// refFoldDistinct accumulates a distinct aggregate's deferred value set
// into fresh accumulators. Keys are visited in sorted encoded-byte
// order, so float sums come out byte-identical no matter how many
// workers built the set or in which order values arrived. Errors
// propagate: MIN/MAX over an unorderable argument type (Blob) must
// fail here exactly as the non-DISTINCT path fails in accumulation.
func refFoldDistinct(st *refAggState, spec plan.AggSpec) (*refAggState, error) {
	keys := make([]string, 0, len(st.distinct))
	for k := range st.distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := &refAggState{}
	var scratch int64 // finalize-time state is transient; not budgeted
	for _, k := range keys {
		v, _, err := decodeValueKey([]byte(k))
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue // unreachable: sets hold only non-NULL encodings
		}
		if err := refAccumulateAgg(out, spec, v, &scratch); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refFinalizeAgg(st *refAggState, spec plan.AggSpec) (vector.Value, error) {
	if spec.Distinct && spec.Arg != nil {
		// COUNT(DISTINCT) is the set's cardinality; skip the
		// sort-and-decode fold the order-sensitive kinds need.
		if spec.Kind == plan.AggCount {
			return vector.NewInt64(int64(len(st.distinct))), nil
		}
		folded, err := refFoldDistinct(st, spec)
		if err != nil {
			return vector.Null(), err
		}
		st = folded
	}
	switch spec.Kind {
	case plan.AggCount:
		return vector.NewInt64(st.count), nil
	case plan.AggSum:
		if st.count == 0 {
			return vector.Null(), nil
		}
		if spec.Typ == vector.Float64 {
			return vector.NewFloat64(st.sumF), nil
		}
		return vector.NewInt64(st.sumI), nil
	case plan.AggAvg:
		if st.count == 0 {
			return vector.Null(), nil
		}
		return vector.NewFloat64(st.sumF / float64(st.count)), nil
	case plan.AggMin:
		if st.min.Type() == vector.Invalid {
			return vector.Null(), nil
		}
		return st.min, nil
	case plan.AggMax:
		if st.max.Type() == vector.Invalid {
			return vector.Null(), nil
		}
		return st.max, nil
	}
	return vector.Null(), nil
}

// refAppendValueKey appends the same encoding appendRowKey produces, but
// reading from a materialized Value instead of a vector row. The two
// encodings must stay byte-identical: partitioned aggregation matches
// groups across worker tables by re-encoding their key values.
func refAppendValueKey(key []byte, v vector.Value) []byte {
	if v.IsNull() {
		return append(key, 0xFF)
	}
	switch v.Type() {
	case vector.Bool:
		if v.Bool() {
			return append(key, 1, 1)
		}
		return append(key, 1, 0)
	case vector.Int32:
		key = append(key, 2)
		return binary.LittleEndian.AppendUint32(key, uint32(int32(v.Int64())))
	case vector.Int64:
		key = append(key, 3)
		return binary.LittleEndian.AppendUint64(key, uint64(v.Int64()))
	case vector.Float64:
		key = append(key, 4)
		return binary.LittleEndian.AppendUint64(key, math.Float64bits(v.Float64()))
	case vector.String:
		s := v.Str()
		key = append(key, 5)
		key = binary.LittleEndian.AppendUint32(key, uint32(len(s)))
		return append(key, s...)
	case vector.Blob:
		b := v.Bytes()
		key = append(key, 6)
		key = binary.LittleEndian.AppendUint32(key, uint32(len(b)))
		return append(key, b...)
	}
	return append(key, 0xFE)
}

// refGroupIndex maps group-key rows to dense group ids. Single fixed-width
// keys (bool/int32/int64) and single string keys bypass the byte-slice
// encoding entirely; the generic path reuses one key buffer and relies
// on Go's map[string]([]byte) lookup optimization, so the only
// per-group-lookup allocation left is the one insert per distinct key.
type refGroupIndex struct {
	kind    refKeyKind
	fastInt map[uint64]int32
	fastStr map[string]int32
	slow    map[string]int32
	nullID  int32 // dense id of the single-key NULL group, -1 if unseen
	buf     []byte
	n       int32
}

type refKeyKind uint8

const (
	refKeyKindNone  refKeyKind = iota // no key columns: one global group
	refKeyKindInt                     // single bool/int32/int64 key
	refKeyKindStr                     // single string key
	refKeyKindBytes                   // generic byte encoding
)

// refNewGroupIndex picks the lookup strategy from the declared key types.
func refNewGroupIndex(types []vector.Type) *refGroupIndex {
	gi := &refGroupIndex{nullID: -1}
	switch {
	case len(types) == 0:
		gi.kind = refKeyKindNone
	case len(types) == 1 && refIsFixedKeyType(types[0]):
		gi.kind = refKeyKindInt
		gi.fastInt = make(map[uint64]int32)
	case len(types) == 1 && types[0] == vector.String:
		gi.kind = refKeyKindStr
		gi.fastStr = make(map[string]int32)
	default:
		gi.kind = refKeyKindBytes
		gi.slow = make(map[string]int32)
	}
	return gi
}

func refIsFixedKeyType(t vector.Type) bool {
	return t == vector.Bool || t == vector.Int32 || t == vector.Int64
}

// refFixedKeyAt folds a fixed-width key value into a uint64. Integer
// widths are sign-extended so the same number keys identically whether
// the runtime vector is Int32 or Int64.
func refFixedKeyAt(v *vector.Vector, r int) (uint64, bool) {
	switch v.Type() {
	case vector.Bool:
		if v.Bools()[r] {
			return 1, true
		}
		return 0, true
	case vector.Int32:
		return uint64(int64(v.Int32s()[r])), true
	case vector.Int64:
		return uint64(v.Int64s()[r]), true
	}
	return 0, false
}

// groupID returns the dense group id for row r of the key vectors and
// whether this call created the group. Ids are assigned in first-
// appearance order.
func (gi *refGroupIndex) groupID(keys []*vector.Vector, r int) (int32, bool) {
	switch gi.kind {
	case refKeyKindNone:
		if gi.n == 0 {
			gi.n = 1
			return 0, true
		}
		return 0, false
	case refKeyKindInt:
		v := keys[0]
		if v.IsNull(r) {
			return gi.nullGroup()
		}
		if k, ok := refFixedKeyAt(v, r); ok {
			if id, ok := gi.fastInt[k]; ok {
				return id, false
			}
			id := gi.n
			gi.n++
			gi.fastInt[k] = id
			return id, true
		}
		// Runtime type diverged from the declared key type: fall back
		// to the generic encoding (separate keyspace by construction).
	case refKeyKindStr:
		v := keys[0]
		if v.IsNull(r) {
			return gi.nullGroup()
		}
		if v.Type() == vector.String {
			s := v.Strings()[r]
			if id, ok := gi.fastStr[s]; ok {
				return id, false
			}
			id := gi.n
			gi.n++
			gi.fastStr[s] = id
			return id, true
		}
	}
	if gi.slow == nil {
		gi.slow = make(map[string]int32)
	}
	gi.buf = gi.buf[:0]
	for _, kv := range keys {
		gi.buf = appendRowKey(gi.buf, kv, r)
	}
	if id, ok := gi.slow[string(gi.buf)]; ok {
		return id, false
	}
	id := gi.n
	gi.n++
	gi.slow[string(gi.buf)] = id
	return id, true
}

func (gi *refGroupIndex) nullGroup() (int32, bool) {
	if gi.nullID >= 0 {
		return gi.nullID, false
	}
	gi.nullID = gi.n
	gi.n++
	return gi.nullID, true
}

// decodeValueKey decodes one value off the front of a key produced by
// appendRowKey, returning the value and the remaining bytes. The
// oracle's distinct-aggregate finalizer uses it to recover argument
// values from a merged per-worker key set (as the executor did before
// it deduplicated (group, value) pairs in a table), so the two
// functions must stay encoding-compatible.
func decodeValueKey(key []byte) (vector.Value, []byte, error) {
	if len(key) == 0 {
		return vector.Null(), nil, fmt.Errorf("exec: empty value key")
	}
	tag, rest := key[0], key[1:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("exec: truncated value key (tag %#x)", tag)
		}
		return nil
	}
	switch tag {
	case 0xFF:
		return vector.Null(), rest, nil
	case 1:
		if err := need(1); err != nil {
			return vector.Null(), nil, err
		}
		return vector.NewBool(rest[0] != 0), rest[1:], nil
	case 2:
		if err := need(4); err != nil {
			return vector.Null(), nil, err
		}
		return vector.NewInt32(int32(binary.LittleEndian.Uint32(rest))), rest[4:], nil
	case 3:
		if err := need(8); err != nil {
			return vector.Null(), nil, err
		}
		return vector.NewInt64(int64(binary.LittleEndian.Uint64(rest))), rest[8:], nil
	case 4:
		if err := need(8); err != nil {
			return vector.Null(), nil, err
		}
		return vector.NewFloat64(math.Float64frombits(binary.LittleEndian.Uint64(rest))), rest[8:], nil
	case 5, 6:
		if err := need(4); err != nil {
			return vector.Null(), nil, err
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if err := need(n); err != nil {
			return vector.Null(), nil, err
		}
		if tag == 5 {
			return vector.NewString(string(rest[:n])), rest[n:], nil
		}
		return vector.NewBlob(append([]byte(nil), rest[:n]...)), rest[n:], nil
	}
	return vector.Null(), nil, fmt.Errorf("exec: corrupt value key tag %#x", tag)
}

// ------------------------------------------------------- the switch

// The columns of the streams TestAggSwitchMatchesReference aggregates:
// each stream chooses the key column k row by row; the rest are
// functions of the row number.
const (
	swK    = iota // BIGINT key, NULL where the stream says so
	swID          // BIGINT, the row number
	swW           // DOUBLE, dyadic: sums are exact in any order
	swS           // VARCHAR, ~49k values of varying length
	swF           // DOUBLE key: two NaN patterns, both zeros, 1.5
	swG           // BIGINT, 64 values
	swCols = 6
)

var swSchema = catalog.Schema{{Name: "k", Type: vector.Int64}, {Name: "id", Type: vector.Int64}, {Name: "w", Type: vector.Float64},
	{Name: "s", Type: vector.String}, {Name: "f", Type: vector.Float64}, {Name: "g", Type: vector.Int64}}

// buildSwitchTable makes a rows-long table whose key column is key(i),
// NULL where it returns ok false.
func buildSwitchTable(t testing.TB, rows int, key func(i int) (k int64, ok bool)) *catalog.Table {
	t.Helper()
	return buildSwitchTableStats(t, rows, key, true)
}

// buildSwitchTableStats is buildSwitchTable, its segments sealed
// without compression or statistics when stats is false: then no key
// has a domain, and every aggregation over it hashes.
func buildSwitchTableStats(t testing.TB, rows int, key func(i int) (k int64, ok bool), stats bool) *catalog.Table {
	t.Helper()
	cols := make([]*vector.Vector, swCols)
	for c, col := range swSchema {
		cols[c] = vector.New(col.Type, rows)
	}
	fs := []float64{math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), math.Copysign(0, -1), 0, 1.5}
	for i := 0; i < rows; i++ {
		if k, ok := key(i); ok {
			cols[swK].AppendValue(vector.NewInt64(k))
		} else {
			cols[swK].AppendValue(vector.Null())
		}
		cols[swID].AppendValue(vector.NewInt64(int64(i)))
		cols[swW].AppendValue(vector.NewFloat64(float64(i%257) / 8))
		cols[swS].AppendValue(vector.NewString(fmt.Sprintf("s%0*d", 1+i%7, (i*7919)%49_157)))
		cols[swF].AppendValue(vector.NewFloat64(fs[i%len(fs)]))
		cols[swG].AppendValue(vector.NewInt64(int64(i % 64)))
	}
	tab, err := catalog.New().CreateTable("sw", swSchema)
	if err != nil {
		t.Fatal(err)
	}
	tab.Data.SetCompression(stats)
	if err := tab.Data.AppendChunk(vector.NewChunk(cols...)); err != nil {
		t.Fatal(err)
	}
	return tab
}

func swAgg(kind plan.AggKind, col int, distinct bool) plan.AggSpec {
	s := plan.AggSpec{Kind: kind, Arg: colRef(col, swSchema[col].Type), Distinct: distinct, Name: fmt.Sprintf("a%d_%d_%v", kind, col, distinct), Typ: vector.Int64}
	switch {
	case kind == plan.AggAvg, kind == plan.AggSum && s.Arg.Type() == vector.Float64:
		s.Typ = vector.Float64
	case kind == plan.AggMin, kind == plan.AggMax:
		s.Typ = s.Arg.Type()
	}
	return s
}

// TestAggSwitchMatchesReference runs streams that make consumers stop
// pre-aggregating — at once, midway, never, one table of two — against
// the row-at-a-time oracle, byte for byte, at workers 1/2/3/8 with no
// budget (the switch is the sample's doing) and 64 KB (a race between
// the sample and the budget), and at one of them under 4 KB (the
// budget's, inside the window; every partition recurses to the bottom).
// Without a budget it also checks, by the node's own counters, that the
// switch happened exactly where the stream is built to cause it.
func TestAggSwitchMatchesReference(t *testing.T) {
	const chunk = vector.DefaultChunkSize
	rng := rand.New(rand.NewSource(18))
	perm := rng.Perm(64 << 10)
	unique := func(i int) (int64, bool) { return int64(perm[i%len(perm)])*7919 + 64, true }
	few := func(i int) (int64, bool) { return int64(rng.Intn(64)), true }
	plain := []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, swAgg(plan.AggSum, swW, false), swAgg(plan.AggMax, swID, false)}
	cases := 0
	for _, c := range []struct {
		name     string
		rows     int
		key      func(i int) (int64, bool)
		groupBy  []int
		aggs     []plan.AggSpec
		switches bool // at two workers and more, unbudgeted
	}{
		{"64 groups then 48k", 32 * chunk, func(i int) (int64, bool) {
			if i < 8*chunk {
				return few(i)
			}
			return unique(i)
		}, []int{swK}, plain, true},
		{"48k groups then 64", 32 * chunk, func(i int) (int64, bool) {
			if i >= 24*chunk {
				return few(i)
			}
			return unique(i)
		}, []int{swK}, plain, true},
		{"shorter than the window", aggSampleRows - 100, unique, []int{swK}, plain, false},
		{"one group in two rows, 40k singletons", 40 * chunk, func(i int) (int64, bool) {
			if i%2 == 0 {
				return -1, true
			}
			return unique(i / 2)
		}, []int{swK}, plain, true},
		{"all-NULL key", 12 * chunk, func(int) (int64, bool) { return 0, false }, []int{swK}, plain, false},
		{"VARCHAR and DOUBLE keys", 24 * chunk, unique, []int{swS, swF}, plain, true},
		{"MIN and MAX of strings", 24 * chunk, unique, []int{swK}, []plan.AggSpec{swAgg(plan.AggMin, swS, false), swAgg(plan.AggMax, swS, false), swAgg(plan.AggCount, swS, false)}, true},
		{"DISTINCT over 64 groups", 24 * chunk, unique, []int{swG}, []plan.AggSpec{swAgg(plan.AggCount, swK, true), swAgg(plan.AggSum, swK, true),
			swAgg(plan.AggAvg, swK, true), {Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, swAgg(plan.AggSum, swW, false)}, true},
	} {
		tab := buildSwitchTable(t, c.rows, c.key)
		cases++
		spec := &plan.Aggregate{Aggs: c.aggs, Child: &plan.Scan{Table: tab}}
		for _, g := range c.groupBy {
			spec.GroupBy = append(spec.GroupBy, colRef(g, swSchema[g].Type))
			spec.GroupNames = append(spec.GroupNames, swSchema[g].Name)
		}
		want := referenceAggregate(t, spec, tab, 1)
		for wi, workers := range []int{1, 2, 3, 8} {
			for _, budget := range []int64{0, 64 << 10, 4 << 10} {
				if budget == 4<<10 && wi != cases%4 {
					continue // 25 µs a row at any worker count: one count a stream, in rotation
				}
				label := fmt.Sprintf("%s: workers=%d budget=%d", c.name, workers, budget)
				ctx, dir := spillCtx(t, workers, budget)
				assertSameBytes(t, label, runPlan(t, spec, ctx).Cols, want.Cols())
				assertTempDirEmpty(t, dir)
				if at := ctx.prof.node(spec).partitionedAt.Load(); budget == 0 && (at > 0) != (c.switches && workers > 1) {
					t.Errorf("%s: partitioned at row %d, want a switch: %v", label, at, c.switches && workers > 1)
				}
				if budget == 0 && ctx.prof.Spilled() || ctx.prof.ResidentPartitions() > 0 && !ctx.prof.Spilled() {
					t.Errorf("%s: %d partitions spilled, %d resident, %d bytes written", label, ctx.prof.Partitions(), ctx.prof.ResidentPartitions(), ctx.prof.BytesWritten())
				}
			}
		}
	}

	// The last stream again, by its tables: the dedup table of the (g, k)
	// pairs is handed to the partitions, the 64 groups of the plain
	// aggregates never are.
	tab := buildSwitchTable(t, 24*chunk, unique)
	agg := newAggregation(&Context{}, &plan.Aggregate{GroupBy: []plan.Expr{colRef(swG, vector.Int64)}, GroupNames: []string{"g"},
		Aggs: []plan.AggSpec{swAgg(plan.AggCount, swK, true), swAgg(plan.AggSum, swW, false)}}, 2, &nodeStats{})
	threads := []aggConsumers{agg.newConsumers(), agg.newConsumers()}
	snap := tab.Data.Snapshot()
	for m := 0; m < snap.NumSegments(); m++ {
		ch, err := snap.Segment(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := threads[m%2].consume(ch, m); err != nil {
			t.Fatal(err)
		}
	}
	for w, cs := range threads {
		if len(cs) != 2 || cs[0].router != nil || cs[0].table.numGroups() != 64 || cs[1].router == nil || cs[1].table != nil {
			t.Fatalf("consumer %d: plain table routed %v, dedup table routed %v", w, cs[0].router != nil, cs[1].router != nil)
		}
	}
}

// TestAggInsertsEachGroupOnce is the gate on what the partitioned path
// is for: over the 64k-group input of BenchmarkMicroAggregateHighCard a
// group is created once, in its partition's table, plus once per
// consumer that saw it during that consumer's sample window — not once
// per consumer and once more at the merge, as thread-local tables do
// ((workers + 1) x the groups). The table has no statistics, so the
// keys have no domain and the aggregation hashes.
func TestAggInsertsEachGroupOnce(t *testing.T) {
	const rows = 256_000
	x := uint64(1)
	tab := buildSwitchTableStats(t, rows, func(int) (int64, bool) {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % (rows / 4)), true
	}, false)
	for _, workers := range []int{1, 2, 3, 8} {
		spec := &plan.Aggregate{GroupBy: []plan.Expr{colRef(swK, vector.Int64)}, GroupNames: []string{"k"},
			Aggs: []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, swAgg(plan.AggSum, swW, false), swAgg(plan.AggMax, swID, false)}, Child: &plan.Scan{Table: tab}}
		ctx := &Context{Parallelism: workers, prof: &Profile{}}
		out := runPlan(t, spec, ctx)
		st := ctx.prof.node(spec)
		inserted, emitted, at := st.groupsInserted.Load(), st.groupsEmitted.Load(), st.partitionedAt.Load()
		if emitted != int64(out.NumRows()) || emitted < 60_000 {
			t.Fatalf("workers=%d: %d groups emitted, %d rows out", workers, emitted, out.NumRows())
		}
		if limit := emitted*5/4 + int64(workers*aggSampleRows); workers > 1 && (inserted > limit || at != aggSampleRows) {
			t.Errorf("workers=%d: %d groups inserted for %d emitted (limit %d), partitioned at row %d", workers, inserted, emitted, limit, at)
		}
		if workers == 1 && (inserted != emitted || at != 0) {
			t.Errorf("one worker: %d groups inserted for %d emitted, partitioned at row %d", inserted, emitted, at)
		}
		t.Logf("workers=%d: inserted %d, emitted %d, partitioned at %d", workers, inserted, emitted, at)
	}
}

// TestAggCancelledMidRoute: a query cancelled after its consumers went
// partitioned gives everything back at Close — the consumers' blocks
// and the partitions' tables to the budget, its goroutines, and a
// spill directory never created.
func TestAggCancelledMidRoute(t *testing.T) {
	tab := buildSwitchTable(t, 64*vector.DefaultChunkSize, func(i int) (int64, bool) { return int64(i) * 7919, true })
	for _, workers := range []int{2, 8} {
		qctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		cancelAt40 := &core.ScalarFunc{Name: "cancel_at_40", Arity: 1, Parallel: true, Eval: func(args []*vector.Vector) (*vector.Vector, error) {
			if calls.Add(1) == 40 {
				cancel()
			}
			return vector.Constant(vector.NewBool(true), args[0].Len(), vector.Bool), nil
		}}
		node := &plan.Aggregate{GroupBy: []plan.Expr{colRef(swK, vector.Int64)}, GroupNames: []string{"k"},
			Aggs:  []plan.AggSpec{{Kind: plan.AggCount, Name: "n", Typ: vector.Int64}, swAgg(plan.AggMax, swS, false)},
			Child: &plan.Filter{Pred: &plan.Call{Fn: cancelAt40, Args: []plan.Expr{colRef(swK, vector.Int64)}, Typ: vector.Bool}, Child: &plan.Scan{Table: tab}}}
		before := runtime.NumGoroutine()
		ctx, dir := spillCtx(t, workers, 1<<30)
		op, err := buildWith(node, workers, ctx.prof)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Ctx, ctx.mem, ctx.spillMgr = qctx, newMemTracker(ctx.MemoryBudget), spill.NewManager(dir, ctx.prof)
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := op.Next(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("workers=%d: err = %v, want ErrCancelled", workers, err)
		}
		if ctx.prof.node(node).partitionedAt.Load() == 0 {
			t.Fatalf("workers=%d: cancelled before any consumer was routing", workers)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if used := ctx.mem.used.Load(); used != 0 {
			t.Errorf("workers=%d: %d bytes still charged after Close", workers, used)
		}
		if ctx.spillMgr.Dir() != "" || ctx.prof.Spilled() {
			t.Errorf("workers=%d: spill directory %q, %d bytes written", workers, ctx.spillMgr.Dir(), ctx.prof.BytesWritten())
		}
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("workers=%d: %d goroutines, %d before the query", workers, n, before)
		}
	}
}
