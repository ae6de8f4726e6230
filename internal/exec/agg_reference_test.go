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
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"vexdb/internal/plan"
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
		v, err := Evaluate(g, ch)
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
		v, err := Evaluate(s.Arg, ch)
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
