package ml

import "math"

// GaussianNB is a Gaussian naive Bayes classifier: per-class feature
// means and variances with log-likelihood scoring.
type GaussianNB struct {
	// VarSmoothing is added to every variance for numerical stability
	// (default 1e-9 times the largest feature variance).
	VarSmoothing float64

	header
	priors []float64   // log priors per class
	means  [][]float64 // [class][feature]
	vars   [][]float64 // [class][feature]
}

// NewGaussianNB returns a Gaussian naive Bayes model with defaults.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Name implements Classifier.
func (m *GaussianNB) Name() string { return "gaussian_nb" }

// Fit implements Classifier: FitWorkers with NumCPU workers.
func (m *GaussianNB) Fit(X [][]float64, y []int) error { return m.FitWorkers(X, y, 0) }

// nbPartial is the mergeable sufficient-statistics accumulator of
// Gaussian naive Bayes training: per-class row counts, feature sums,
// and feature sums of squares. Partials merge by plain addition, so
// the merge result depends only on the merge order, never on which
// worker produced which partial.
type nbPartial struct {
	counts []float64
	sum    [][]float64 // [class][feature]
	sumsq  [][]float64 // [class][feature]
}

// newNBPartial returns an empty accumulator for k classes over nfeat
// features.
func newNBPartial(k, nfeat int) *nbPartial {
	p := &nbPartial{
		counts: make([]float64, k),
		sum:    make([][]float64, k),
		sumsq:  make([][]float64, k),
	}
	for c := 0; c < k; c++ {
		p.sum[c] = make([]float64, nfeat)
		p.sumsq[c] = make([]float64, nfeat)
	}
	return p
}

// observe accumulates rows [lo, hi) of X; yi holds class indices.
func (p *nbPartial) observe(X [][]float64, yi []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := yi[i]
		p.counts[c]++
		sum, sumsq := p.sum[c], p.sumsq[c]
		for f := range X {
			v := X[f][i]
			sum[f] += v
			sumsq[f] += v * v
		}
	}
}

// merge adds o's statistics into p.
func (p *nbPartial) merge(o *nbPartial) {
	for c := range p.counts {
		p.counts[c] += o.counts[c]
		for f := range p.sum[c] {
			p.sum[c][f] += o.sum[c][f]
			p.sumsq[c][f] += o.sumsq[c][f]
		}
	}
}

// FitWorkers trains the model from per-morsel sufficient statistics
// accumulated by up to workers goroutines (0 means NumCPU) and merged
// in morsel order. Because morsel boundaries are fixed and the merge
// is ordered, the fitted model is byte-identical at any worker count.
// Variances are E[x²]−E[x]², not centered deviations, so the last bits
// can differ from a two-pass fit (fit_reference_test.go keeps one).
func (m *GaussianNB) FitWorkers(X [][]float64, y []int, workers int) error {
	n, err := validateXY(X, y)
	if err != nil {
		return err
	}
	classes, cidx := classIndex(y)
	yi := make([]int, n)
	for i, c := range y {
		yi[i] = cidx[c]
	}
	k, nfeat := len(classes), len(X)
	nm := numMorsels(n)
	parts := make([]*nbPartial, nm)
	parallelMorsels(workers, nm, func(mi int) {
		lo, hi := morselBounds(mi, n)
		p := newNBPartial(k, nfeat)
		p.observe(X, yi, lo, hi)
		parts[mi] = p
	})
	s := newNBPartial(k, nfeat)
	for _, p := range parts {
		s.merge(p)
	}

	m.header = header{classes: classes, nfeat: nfeat}
	m.means = make([][]float64, k)
	m.vars = make([][]float64, k)
	maxVar := 0.0
	for c := 0; c < k; c++ {
		m.means[c] = make([]float64, nfeat)
		m.vars[c] = make([]float64, nfeat)
		cnt := s.counts[c]
		if cnt == 0 {
			continue
		}
		for f := 0; f < nfeat; f++ {
			mean := s.sum[c][f] / cnt
			m.means[c][f] = mean
			// E[x²]−E[x]² can round a hair below zero; clamp.
			v := s.sumsq[c][f]/cnt - mean*mean
			if v < 0 {
				v = 0
			}
			m.vars[c][f] = v
			if v > maxVar {
				maxVar = v
			}
		}
	}
	eps := m.VarSmoothing
	if eps <= 0 {
		eps = 1e-9 * maxVar
		if eps <= 0 {
			eps = 1e-9
		}
	}
	for c := 0; c < k; c++ {
		for f := 0; f < nfeat; f++ {
			m.vars[c][f] += eps
		}
	}
	m.priors = make([]float64, k)
	for c := 0; c < k; c++ {
		m.priors[c] = math.Log(s.counts[c] / float64(n))
	}
	return nil
}

// probsInto is naive Bayes's kernel: per row, the per-class joint
// log-likelihoods, shifted by their maximum and normalized.
func (m *GaussianNB) probsInto(X [][]float64, n int, probs []float64) {
	k := len(m.classes)
	logpp := getFloats(k)
	logp := *logpp
	for r := 0; r < n; r++ {
		for c := range logp {
			lp := m.priors[c]
			means, vars := m.means[c], m.vars[c]
			for f := 0; f < m.nfeat; f++ {
				v := vars[f]
				d := X[f][r] - means[f]
				lp += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
			}
			logp[c] = lp
		}
		softmaxInto(logp, probs[r*k:r*k+k])
	}
	putFloats(logpp)
}

// softmaxInto exponentiates shifted log scores into probabilities.
func softmaxInto(logp, out []float64) {
	maxLog := logp[0]
	for _, v := range logp[1:] {
		if v > maxLog {
			maxLog = v
		}
	}
	sum := 0.0
	for i, v := range logp {
		out[i] = math.Exp(v - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}
