package exec

import (
	"fmt"

	"vexdb/internal/plan"
	"vexdb/internal/vector"
)

// The WHERE path before selection kernels, kept verbatim as the oracle
// TestFilterKernelsMatchReference and FuzzFilterKernel hold Where to:
// the whole predicate evaluated by Evaluate into one bool vector.

// filterChunk returns the rows of ch matching pred, nil when none do.
// *selBuf is reused across calls; an all-true NULL-free predicate
// skips the selection vector (and the Gather copy) entirely.
func filterChunk(pred plan.Expr, ch *vector.Chunk, selBuf *[]int) (*vector.Chunk, error) {
	pv, err := plan.Evaluate(pred, ch)
	if err != nil {
		return nil, err
	}
	if pv.Type() != vector.Bool {
		return nil, fmt.Errorf("exec: WHERE predicate must be boolean, got %s", pv.Type())
	}
	n := ch.NumRows()
	if n == 0 {
		return nil, nil
	}
	bools := pv.Bools()
	if pv.Nulls() == nil {
		allTrue := true
		for i := 0; i < n; i++ {
			if !bools[i] {
				allTrue = false
				break
			}
		}
		if allTrue {
			return ch, nil
		}
	}
	sel := (*selBuf)[:0]
	for i := 0; i < n; i++ {
		if !pv.IsNull(i) && bools[i] {
			sel = append(sel, i)
		}
	}
	*selBuf = sel
	if len(sel) == 0 {
		return nil, nil
	}
	if len(sel) == n {
		return ch, nil
	}
	return ch.Gather(sel), nil
}
