package modelstore

import (
	"fmt"

	"vexdb/ml"
)

// Ensemble applies several stored models jointly — the paper's
// Section 3.3: "classify the same data using multiple models and use
// the result of the model that reports the highest confidence", or
// combine them by majority vote.
type Ensemble struct {
	Models []ml.Classifier
	IDs    []int64
}

// LoadEnsemble fetches the given model ids into an ensemble.
func (s *Store) LoadEnsemble(ids ...int64) (*Ensemble, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("modelstore: empty ensemble")
	}
	e := &Ensemble{IDs: ids}
	for _, id := range ids {
		clf, _, err := s.Load(id)
		if err != nil {
			return nil, err
		}
		e.Models = append(e.Models, clf)
	}
	return e, nil
}

// PredictMajority returns per-row majority-vote labels across the
// ensemble's models (ties broken toward the smaller label).
func (e *Ensemble) PredictMajority(X [][]float64) ([]int, error) {
	if len(e.Models) == 0 {
		return nil, fmt.Errorf("modelstore: empty ensemble")
	}
	preds := make([][]int, len(e.Models))
	for i, m := range e.Models {
		p, err := ml.Predict(m, X)
		if err != nil {
			return nil, fmt.Errorf("modelstore: model %d: %w", e.IDs[i], err)
		}
		preds[i] = p
	}
	n := len(preds[0])
	out := make([]int, n)
	for r := 0; r < n; r++ {
		votes := make(map[int]int)
		for _, p := range preds {
			votes[p[r]]++
		}
		bestLabel, bestVotes := 0, -1
		for label, v := range votes {
			if v > bestVotes || (v == bestVotes && label < bestLabel) {
				bestLabel, bestVotes = label, v
			}
		}
		out[r] = bestLabel
	}
	return out, nil
}

// PredictHighestConfidence returns, per row, the prediction of the
// model reporting the highest class probability, plus which model won
// (index into IDs).
func (e *Ensemble) PredictHighestConfidence(X [][]float64) (labels []int, winner []int, err error) {
	if len(e.Models) == 0 {
		return nil, nil, fmt.Errorf("modelstore: empty ensemble")
	}
	n := 0 // ml rejects an X without columns
	if len(X) > 0 {
		n = len(X[0])
	}
	type scored struct {
		labels []int32
		conf   []float64
	}
	all := make([]scored, len(e.Models))
	for i, m := range e.Models {
		s := scored{labels: make([]int32, n), conf: make([]float64, n)}
		err := ml.PredictLabelsInto(m, X, s.labels)
		if err == nil {
			err = ml.PredictConfidenceInto(m, X, s.conf)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("modelstore: model %d: %w", e.IDs[i], err)
		}
		all[i] = s
	}
	labels = make([]int, n)
	winner = make([]int, n)
	for r := 0; r < n; r++ {
		bi := 0
		for i := 1; i < len(all); i++ {
			if all[i].conf[r] > all[bi].conf[r] {
				bi = i
			}
		}
		labels[r] = int(all[bi].labels[r])
		winner[r] = bi
	}
	return labels, winner, nil
}
