package ml

import (
	"fmt"
	"sync"
)

// Scoring: the three package functions below are the only callers of
// the models' kernels. Each checks X against the fitted shape once,
// has the kernel fill a pooled row-major n×k probability buffer, and
// reduces every row: the label is the class of the first largest
// probability, the confidence that probability. Scoring one chunk
// allocates nothing proportional to the chunk beyond the caller's
// output, so the engine's streaming PREDICT calls these per chunk.

// Predict returns the predicted class label of every row of X.
func Predict(c Classifier, X [][]float64) ([]int, error) {
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	p, err := score(c, X, n)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	classes, probs, k := c.Classes(), *p, len(c.Classes())
	for r := range out {
		out[r] = classes[argmax(probs[r*k:r*k+k])]
	}
	putFloats(p)
	return out, nil
}

// PredictLabelsInto writes the predicted class label of each row of X
// into out (len(out) must equal the row count).
func PredictLabelsInto(c Classifier, X [][]float64, out []int32) error {
	p, err := score(c, X, len(out))
	if err != nil {
		return err
	}
	classes, probs, k := c.Classes(), *p, len(c.Classes())
	for r := range out {
		out[r] = int32(classes[argmax(probs[r*k:r*k+k])])
	}
	putFloats(p)
	return nil
}

// PredictConfidenceInto writes each row's winning class probability
// into out (len(out) must equal the row count).
func PredictConfidenceInto(c Classifier, X [][]float64, out []float64) error {
	p, err := score(c, X, len(out))
	if err != nil {
		return err
	}
	probs, k := *p, len(c.Classes())
	for r := range out {
		out[r] = maxProb(probs[r*k : r*k+k])
	}
	putFloats(p)
	return nil
}

// score checks X against c's fitted shape and an output of outLen
// rows, then runs c's kernel into pooled scratch, which the caller
// returns with putFloats.
func score(c Classifier, X [][]float64, outLen int) (*[]float64, error) {
	h := c.shape()
	if len(h.classes) == 0 {
		return nil, ErrNotFitted
	}
	n, err := validateX(X)
	if err != nil {
		return nil, err
	}
	if len(X) != h.nfeat {
		return nil, fmt.Errorf("ml: model fitted on %d features, got %d", h.nfeat, len(X))
	}
	if outLen != n {
		return nil, fmt.Errorf("ml: output has %d rows, input has %d", outLen, n)
	}
	p := getFloats(n * len(h.classes))
	c.probsInto(X, n, *p)
	return p, nil
}

// maxProb is the confidence reduction: the largest probability,
// scanning in class order (first wins ties).
func maxProb(p []float64) float64 {
	best := p[0]
	for _, v := range p[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// Scratch buffers are pooled so chunk-at-a-time scoring does not
// allocate per call. Slices are returned unzeroed; users must
// initialize what they read.
var (
	floatsPool = sync.Pool{New: func() any { return new([]float64) }}
	int32sPool = sync.Pool{New: func() any { return new([]int32) }}
)

func getFloats(n int) *[]float64 {
	p := floatsPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putFloats(p *[]float64) { floatsPool.Put(p) }

func getInt32s(n int) *[]int32 {
	p := int32sPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

func putInt32s(p *[]int32) { int32sPool.Put(p) }
