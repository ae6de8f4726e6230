package ml

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Model serialization: the pickle analog of the paper. Marshal turns a
// fitted Classifier into a self-describing versioned binary blob that
// can be stored in a BLOB column; Unmarshal restores it inside a
// prediction UDF. Format (little-endian):
//
//	magic   [4]byte "VXML"
//	version uint16 (currently 1)
//	kind    uint8 (model type tag)
//	payload model-specific
var modelMagic = [4]byte{'V', 'X', 'M', 'L'}

const serializeVersion = 1

// Model type tags.
const (
	kindDecisionTree uint8 = iota + 1
	kindRandomForest
	kindLogReg
	kindGaussianNB
	kindKNN
)

// Marshal serializes a fitted model to its binary representation.
func Marshal(c Classifier) ([]byte, error) {
	w := &writer{}
	w.bytes(modelMagic[:])
	w.u16(serializeVersion)
	switch m := c.(type) {
	case *DecisionTree:
		w.u8(kindDecisionTree)
		marshalTree(w, m)
	case *RandomForest:
		if len(m.trees) == 0 {
			return nil, ErrNotFitted
		}
		w.u8(kindRandomForest)
		w.i64(int64(m.NEstimators))
		w.i64(int64(m.MaxDepth))
		w.i64(int64(m.MinSamplesLeaf))
		w.i64(int64(m.MaxFeatures))
		w.i64(m.Seed)
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.i64(int64(len(m.trees)))
		for _, t := range m.trees {
			marshalTree(w, t)
		}
	case *LogisticRegression:
		if m.weights == nil {
			return nil, ErrNotFitted
		}
		w.u8(kindLogReg)
		w.f64(m.LearningRate)
		w.i64(int64(m.Iterations))
		w.f64(m.L2)
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.i64(int64(len(m.weights)))
		for _, wv := range m.weights {
			w.floats(wv)
		}
	case *GaussianNB:
		if m.means == nil {
			return nil, ErrNotFitted
		}
		w.u8(kindGaussianNB)
		w.f64(m.VarSmoothing)
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.floats(m.priors)
		w.i64(int64(len(m.means)))
		for i := range m.means {
			w.floats(m.means[i])
			w.floats(m.vars[i])
		}
	case *KNN:
		if m.trainX == nil {
			return nil, ErrNotFitted
		}
		w.u8(kindKNN)
		w.i64(int64(m.K))
		w.ints(m.classes)
		w.i64(int64(m.nfeat))
		w.i64(int64(len(m.trainX)))
		for _, col := range m.trainX {
			w.floats(col)
		}
		w.ints(m.trainY)
	default:
		return nil, fmt.Errorf("ml: cannot marshal %T", c)
	}
	return w.buf, nil
}

func marshalTree(w *writer, t *DecisionTree) {
	if len(t.nodes) == 0 {
		// An unfitted tree marshals with zero nodes; Unmarshal yields
		// an unfitted tree.
		w.i64(int64(t.MaxDepth))
		w.i64(int64(t.MinSamplesLeaf))
		w.i64(int64(t.MaxFeatures))
		w.i64(t.Seed)
		w.ints(nil)
		w.i64(0)
		w.i64(0)
		return
	}
	w.i64(int64(t.MaxDepth))
	w.i64(int64(t.MinSamplesLeaf))
	w.i64(int64(t.MaxFeatures))
	w.i64(t.Seed)
	w.ints(t.classes)
	w.i64(int64(t.nfeat))
	w.i64(int64(len(t.nodes)))
	for i := range t.nodes {
		nd := &t.nodes[i]
		w.i32(nd.feature)
		w.i32(nd.left)
		w.i32(nd.right)
		w.f64(nd.threshold)
		if nd.left < 0 {
			w.floats(nd.probs)
		}
	}
}

// Unmarshal deserializes a model blob produced by Marshal. It rejects,
// with an error, every blob Marshal could not have produced (see
// check), so a stored or crafted model cannot panic, hang or exhaust
// the scorer: counts are bounded by the bytes left before anything is
// sized by them, and trailing bytes are an error.
func Unmarshal(data []byte) (Classifier, error) {
	r := &reader{buf: data}
	if magic := r.take(4); r.err != nil || [4]byte(magic) != modelMagic {
		return nil, fmt.Errorf("ml: bad model magic %q", magic)
	}
	if v := r.u16(); v != serializeVersion {
		return nil, fmt.Errorf("ml: unsupported model version %d", v)
	}
	kind := r.u8()
	var out Classifier
	switch kind {
	case kindDecisionTree:
		t := &DecisionTree{}
		unmarshalTree(r, t)
		out = t
	case kindRandomForest:
		f := &RandomForest{}
		f.NEstimators = int(r.i64())
		f.MaxDepth = int(r.i64())
		f.MinSamplesLeaf = int(r.i64())
		f.MaxFeatures = int(r.i64())
		f.Seed = r.i64()
		f.classes = r.ints()
		f.nfeat = int(r.i64())
		// An empty tree still takes 7 eight-byte fields.
		f.trees = make([]*DecisionTree, r.count(56))
		for i := 0; i < len(f.trees) && r.err == nil; i++ {
			f.trees[i] = &DecisionTree{}
			unmarshalTree(r, f.trees[i])
		}
		out = f
	case kindLogReg:
		m := &LogisticRegression{}
		m.LearningRate = r.f64()
		m.Iterations = int(r.i64())
		m.L2 = r.f64()
		m.classes = r.ints()
		m.nfeat = int(r.i64())
		m.weights = make([][]float64, r.count(8))
		for i := range m.weights {
			m.weights[i] = r.floats()
		}
		out = m
	case kindGaussianNB:
		m := &GaussianNB{}
		m.VarSmoothing = r.f64()
		m.classes = r.ints()
		m.nfeat = int(r.i64())
		m.priors = r.floats()
		k := r.count(16)
		m.means = make([][]float64, k)
		m.vars = make([][]float64, k)
		for i := 0; i < k; i++ {
			m.means[i] = r.floats()
			m.vars[i] = r.floats()
		}
		out = m
	case kindKNN:
		m := &KNN{}
		m.K = int(r.i64())
		m.classes = r.ints()
		m.nfeat = int(r.i64())
		m.trainX = make([][]float64, r.count(8))
		for i := range m.trainX {
			m.trainX[i] = r.floats()
		}
		m.trainY = r.ints()
		out = m
	default:
		return nil, fmt.Errorf("ml: unknown model kind %d", kind)
	}
	if r.err == nil && r.pos != len(r.buf) {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)-r.pos))
	}
	if r.err == nil {
		r.err = check(out)
	}
	if r.err != nil {
		return nil, fmt.Errorf("ml: corrupt model blob: %w", r.err)
	}
	return out, nil
}

func unmarshalTree(r *reader, t *DecisionTree) {
	t.MaxDepth = int(r.i64())
	t.MinSamplesLeaf = int(r.i64())
	t.MaxFeatures = int(r.i64())
	t.Seed = r.i64()
	t.classes = r.ints()
	t.nfeat = int(r.i64())
	// A node takes at least feature, children and threshold: 20 bytes.
	t.nodes = make([]treeNode, r.count(20))
	for i := 0; i < len(t.nodes) && r.err == nil; i++ {
		nd := &t.nodes[i]
		nd.feature = r.i32()
		nd.left = r.i32()
		nd.right = r.i32()
		nd.threshold = r.f64()
		if nd.left < 0 {
			nd.probs = r.floats()
		}
	}
}

// maxTreeNodes is packNode's limit: 24-bit child indices.
const maxTreeNodes = 1 << 24

// check rejects a decoded model whose shape a fit cannot produce and
// the scoring kernels do not guard against: classes must be non-empty
// and strictly ascending, and every array the kernel indexes must have
// the length the classes and the feature count imply.
func check(c Classifier) error {
	switch m := c.(type) {
	case *DecisionTree:
		if len(m.nodes) == 0 && len(m.classes) == 0 && m.nfeat == 0 {
			return nil // an unfitted tree
		}
		return checkTree(m)
	case *RandomForest:
		if err := checkHeader(&m.header, maxTreeFeatures); err != nil {
			return err
		}
		if len(m.trees) == 0 {
			return fmt.Errorf("forest has no trees")
		}
		for i, t := range m.trees {
			if err := checkTree(t); err != nil {
				return fmt.Errorf("tree %d: %w", i, err)
			}
			if t.nfeat != m.nfeat || !slices.Equal(t.classes, m.classes) {
				return fmt.Errorf("tree %d: shape differs from the forest's", i)
			}
		}
	case *LogisticRegression:
		if err := checkHeader(&m.header, math.MaxInt32); err != nil {
			return err
		}
		if len(m.weights) != len(m.classes) {
			return fmt.Errorf("%d weight vectors for %d classes", len(m.weights), len(m.classes))
		}
		for i, w := range m.weights {
			if len(w) != m.nfeat+1 {
				return fmt.Errorf("weight vector %d has %d entries for %d features", i, len(w), m.nfeat)
			}
		}
	case *GaussianNB:
		if err := checkHeader(&m.header, math.MaxInt32); err != nil {
			return err
		}
		k := len(m.classes)
		if len(m.priors) != k || len(m.means) != k {
			return fmt.Errorf("%d priors and %d mean vectors for %d classes", len(m.priors), len(m.means), k)
		}
		for i := range m.means {
			if len(m.means[i]) != m.nfeat || len(m.vars[i]) != m.nfeat {
				return fmt.Errorf("class %d: %d means and %d variances for %d features", i, len(m.means[i]), len(m.vars[i]), m.nfeat)
			}
		}
	case *KNN:
		if err := checkHeader(&m.header, math.MaxInt32); err != nil {
			return err
		}
		if m.K < 1 {
			return fmt.Errorf("k = %d", m.K)
		}
		if len(m.trainX) != m.nfeat || len(m.trainY) == 0 {
			return fmt.Errorf("%d feature columns of %d rows for %d features", len(m.trainX), len(m.trainY), m.nfeat)
		}
		for f, col := range m.trainX {
			if len(col) != len(m.trainY) {
				return fmt.Errorf("feature column %d has %d rows, labels %d", f, len(col), len(m.trainY))
			}
		}
		for i, l := range m.trainY {
			if l < 0 || l >= len(m.classes) {
				return fmt.Errorf("row %d: class index %d of %d", i, l, len(m.classes))
			}
		}
	}
	return nil
}

// checkHeader requires non-empty, strictly ascending classes and
// between 1 and maxFeat features.
func checkHeader(h *header, maxFeat int) error {
	if len(h.classes) == 0 {
		return fmt.Errorf("no classes")
	}
	for i := 1; i < len(h.classes); i++ {
		if h.classes[i] <= h.classes[i-1] {
			return fmt.Errorf("classes not ascending at %d", i)
		}
	}
	if h.nfeat < 1 || h.nfeat > maxFeat {
		return fmt.Errorf("%d features", h.nfeat)
	}
	return nil
}

// checkTree requires a fitted tree's nodes to form one tree rooted at
// node 0: every internal node's children lie in (i, n) and every other
// node is exactly one node's child, which rules out cycles and shared
// subtrees. Features index the fitted columns and every leaf holds one
// probability per class.
func checkTree(t *DecisionTree) error {
	if err := checkHeader(&t.header, maxTreeFeatures); err != nil {
		return err
	}
	n := len(t.nodes)
	if n == 0 || n > maxTreeNodes {
		return fmt.Errorf("%d nodes", n)
	}
	hasParent := make([]bool, n)
	adopt := func(i int, c int32) bool {
		if int(c) <= i || int(c) >= n || hasParent[c] {
			return false
		}
		hasParent[c] = true
		return true
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.left < 0 {
			if nd.left != -1 || nd.right != -1 || len(nd.probs) != len(t.classes) {
				return fmt.Errorf("node %d: leaf with children %d, %d and %d probabilities", i, nd.left, nd.right, len(nd.probs))
			}
			continue
		}
		if nd.feature < 0 || int(nd.feature) >= t.nfeat {
			return fmt.Errorf("node %d: feature %d of %d", i, nd.feature, t.nfeat)
		}
		if !adopt(i, nd.left) || !adopt(i, nd.right) {
			return fmt.Errorf("node %d: children %d, %d", i, nd.left, nd.right)
		}
	}
	for i := 1; i < n; i++ {
		if !hasParent[i] {
			return fmt.Errorf("node %d is unreachable", i)
		}
	}
	return nil
}

// ------------------------------------------------------------ writer

type writer struct {
	buf []byte
}

func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)   { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) i32(v int32)    { w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v)) }
func (w *writer) i64(v int64)    { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *writer) f64(v float64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v)) }

func (w *writer) floats(v []float64) {
	w.i64(int64(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *writer) ints(v []int) {
	w.i64(int64(len(v)))
	for _, x := range v {
		w.i64(int64(x))
	}
}

// ------------------------------------------------------------ reader

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, or zeros once the blob is short (n
// is at most 8 then: counts are checked before slices are read).
func (r *reader) take(n int) []byte {
	if r.err != nil || n > len(r.buf)-r.pos {
		r.fail(fmt.Errorf("unexpected end of blob at offset %d", r.pos))
		return make([]byte, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8() uint8    { return r.take(1)[0] }
func (r *reader) u16() uint16  { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *reader) i32() int32   { return int32(binary.LittleEndian.Uint32(r.take(4))) }
func (r *reader) i64() int64   { return int64(binary.LittleEndian.Uint64(r.take(8))) }
func (r *reader) f64() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8))) }

// count reads an element count and bounds it by the bytes left, each
// element taking at least minBytes; a bad count fails the reader and
// reads as 0, so nothing is sized by it.
func (r *reader) count(minBytes int) int {
	n := r.i64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64((len(r.buf)-r.pos)/minBytes) {
		r.fail(fmt.Errorf("count %d at offset %d exceeds the %d bytes left", n, r.pos-8, len(r.buf)-r.pos))
		return 0
	}
	return int(n)
}

func (r *reader) floats() []float64 {
	out := make([]float64, r.count(8))
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) ints() []int {
	out := make([]int, r.count(8))
	for i := range out {
		out[i] = int(r.i64())
	}
	return out
}
